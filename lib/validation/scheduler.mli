(** The end-to-end validation scheduling algorithm (Figure 5).

    Iterates over the candidate set [R_c] with alternating passes until
    it empties (or a pass makes no progress):

    - {b false-positive removal}: for each candidate, generate a
      negative test case that conforms to every validated check in
      [R_v] (hard) while minimizing collateral violations of [R_c]
      (soft). UNSAT means the candidate conflicts with ground truth and
      is dropped; a {e deployable} negative test case falsifies the
      candidate — and every other [R_c] check it violates.
    - {b true-positive validation}: when the negative test case fails
      to deploy, the candidate is validated if it is the only violated
      candidate, or if the violated set lies within a pre-computed
      {e indistinguishable group} (checks that can never be violated
      separately, O3).

    Candidates are processed in {e evaluation partial order} (O4):
    checks over early-deploying resource types first, which defuses
    reasoning loops between location-style checks.

    Every pass is instrumented for the convergence plots of Figure 8. *)

type deploy = Zodiac_iac.Program.t -> bool
(** Deployment oracle: true iff the program deploys cleanly. *)

type deploy_batch = Zodiac_iac.Program.t list -> bool list
(** Batched oracle; must be order-faithful, i.e. observationally
    [List.map deploy]. {!Zodiac_engine} provides one that computes pure
    backend responses in parallel. *)

type iteration = {
  iter : int;
  fp_deployable : int;  (** FPs removed because [t_n] deployed *)
  fp_unsat : int;  (** FPs removed because no [t_n] exists *)
  fp_no_instance : int;  (** FPs removed for lack of a positive witness *)
  tp_single : int;  (** validated with a single violation *)
  tp_group : int;  (** validated through an indistinguishable group *)
  remaining : int;  (** |R_c| after the iteration *)
}

type verdict =
  | Validated of { group : string list }
      (** cids validated together (singleton for a lone check) *)
  | Falsified of
      [ `Deployable | `Unsat | `No_instance | `Stalled ]

type result = {
  validated : Zodiac_spec.Check.t list;
  falsified : (Zodiac_spec.Check.t * verdict) list;
  iterations : iteration list;
  deployments : int;  (** total cloud deployments performed *)
}

type config = {
  handle_indistinct : bool;  (** O3 (Figure 8b ablation) *)
  use_partial_order : bool;  (** O4 *)
  max_iterations : int;
  tp_limit : int;  (** positive test cases considered per check *)
  donor_pool : int;  (** corpus prefix used as mutation donors *)
}

val default_config : config

val run :
  ?config:config ->
  ?telemetry:Zodiac_util.Telemetry.t ->
  ?jobs:int ->
  ?deploy_batch:deploy_batch ->
  provider:Zodiac_provider.Provider.t ->
  kb:Zodiac_kb.Kb.t ->
  corpus:(string * Zodiac_iac.Program.t) list ->
  deploy:deploy ->
  Zodiac_spec.Check.t list ->
  result
(** Passes are batch-synchronous: each pass plans every mutant from the
    pass-start snapshot of (R_c, R_v) — a pure fan-out across up to
    [jobs] domains — deploys the batch in snapshot order (through
    [deploy_batch] when given, else [deploy] one by one), and commits
    verdicts sequentially in that order. The result is identical for
    every [jobs] value.

    Each mutant is planned once. The FP pass stops at the first t_p
    that yields a mutant. The TP pass plans one mutant per check per
    iteration (first t_p) before O3 grouping, and grouping reads each
    check's violated set off that plan; only its refine step plans
    more.

    [telemetry] (default {!Zodiac_util.Telemetry.null}) receives
    [scheduler.batches] / [scheduler.batch_programs] per deployed
    batch and [scheduler.iterations] / [scheduler.deployments] /
    [scheduler.mutations] (calls to {!Mutation.negative}) totals, and
    the mutation searches' [solver.*] counts ({!Mutation.counter_totals});
    all are deterministic and the same for every [jobs]. Pure
    observation, never part of the result. *)

val counterexample_pass :
  ?jobs:int ->
  provider:Zodiac_provider.Provider.t ->
  corpus:(string * Zodiac_iac.Program.t) list ->
  deploy:deploy ->
  Zodiac_spec.Check.t list ->
  Zodiac_spec.Check.t list * Zodiac_spec.Check.t list
(** §5.6: hunt for corpus programs that violate a validated check yet
    deploy successfully. Returns (kept, exposed false positives).
    Runs over the indexed corpus graphs ({!Testcase.index}, built once
    per call) and looks only at programs that declare every type the
    check binds ({!Testcase.binding_entries}). *)
