(** The deployment-execution engine facade.

    Sits between the validation scheduler / pipeline and the ARM
    simulator, composing the pieces of this library:

    + an optional fault-injection backend ({!Zodiac_cloud.Flaky});
    + the resilient retry client ({!Client}) that recovers genuine
      outcomes from transient faults;
    + an α-canonical outcome memoization cache ({!Memo} keyed by
      {!Fingerprint.canonical}) — the scheduler re-deploys structurally
      identical mutants across its FP/TP passes, and every cache hit is
      a deployment that never happens;
    + the engine statistics record ({!Stats}).

    The soundness property inherited from {!Client}: with the default
    configuration (retry budget above the flaky backend's burst cap),
    the [validated]/[falsified] sets computed through this engine are
    identical to a fault-free run — faults cost simulated time and
    retries, never verdicts. *)

type backend =
  | Pure  (** the fault-free {!Zodiac_cloud.Arm} simulator *)
  | Faulty of Zodiac_cloud.Flaky.config  (** seeded transient faults *)

type config = {
  client : Client.config;
  memo : bool;  (** memoize outcomes by canonical fingerprint *)
  memo_capacity : int;
  backend : backend;
}

val default_config : config
(** Memo on (capacity 8192), pure backend, default client. *)

val faulty_config : ?fault_rate:float -> ?seed:int -> unit -> config
(** [default_config] over a {!Faulty} backend with the given rate
    (default {!Zodiac_cloud.Flaky.default_config}[.fault_rate]). *)

type t

val create :
  provider:Zodiac_provider.Provider.t ->
  ?config:config ->
  unit ->
  t
(** The simulator behind the engine deploys against [provider]'s
    ground-truth rules, resolved once here, with no quota. *)

val config : t -> config

val deploy : t -> Zodiac_iac.Program.t -> (Zodiac_cloud.Arm.outcome, Client.error) result
(** Full outcome through cache and retry loop. Only genuine outcomes
    are cached; errors (possible only when the client budget is set
    below the fault burst cap, or a deadline is imposed) are not. *)

val deploy_batch :
  ?jobs:int ->
  t ->
  Zodiac_iac.Program.t list ->
  (Zodiac_cloud.Arm.outcome, Client.error) result list
(** Equivalent to [List.map (deploy t)] — bit-identical results and
    stats for every [jobs] value. With the [Pure] backend, raw simulator
    responses for memo-missing fingerprints are computed on up to [jobs]
    domains, then committed sequentially in batch order; with a [Faulty]
    backend (shared seeded fault stream) the batch stays sequential. *)

val success : t -> Zodiac_iac.Program.t -> bool
(** [Arm.success] of the recovered outcome; an abandoned request
    counts as a failed deployment (and in [giveups]). *)

val oracle : t -> Zodiac_iac.Program.t -> bool
(** [success] partially applied — the [Scheduler.deploy] oracle. *)

val oracle_batch : ?jobs:int -> t -> Zodiac_iac.Program.t list -> bool list
(** [success] over {!deploy_batch} — the [Scheduler.deploy_batch]
    oracle. *)

val stats : t -> Stats.snapshot
(** Current statistics, cache counters included. *)

val memo_entries : t -> int
(** Outcomes currently resident in the memoization cache (0 when
    memoization is off) — a live-occupancy gauge, distinct from the
    cumulative hit/miss counters in {!stats}. *)
