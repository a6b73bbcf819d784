(** Solver-aided negative test case generation (§4.1).

    Starting from a positive test case, the mutation engine encodes a
    finite search space over the attributes relevant to the target
    check and every other known check, plus — for aggregation targets —
    duplicated or donor-instantiated "virtual" resources that raise a
    degree past its hypothesized bound. A Max-CSP solve then finds the
    cheapest mutation that

    - violates the target check (hard),
    - keeps every check in [hard] satisfied (hard — the validated set
      [R_v] plus KB well-formedness, which is built into the domains),
    - minimizes violations of the [soft] checks (the rest of [R_c]) and
      the distance from the original program.

    [None] means UNSAT: no negative test case exists without breaking
    a hard check — the signal used by the scheduler's false-positive
    and indistinguishability logic.

    For tractability the encodings are bounded: only checks relevant to
    the test case's resource types are encoded, prioritized by whether
    they constrain freshly-added resources, and capped (40 hard / 30
    soft). The final test case is always re-validated against the full
    sets by the caller, so the caps trade completeness of the UNSAT
    signal for speed, never soundness of a produced case. *)

type options = {
  consider_others : bool;
      (** encode [hard]/[soft] checks at all (Table 5 ablation) *)
  minimize_changes : bool;
      (** prefer original values and minimal distance (Table 5 ablation) *)
}

val default_options : options

type result = {
  program : Zodiac_iac.Program.t;  (** the negative test case [t_n] *)
  violated_soft : string list;  (** cids of soft checks violated *)
  attr_changes : int;  (** mutated attributes on original resources *)
  topo_changes : int;  (** virtual resources added *)
}

type slot = { rid : Zodiac_iac.Resource.id; path : Zodiac_iac.Path.t }
(** One solver variable: a path of one resource, its index variables
    bound to positions (one slot per element an endpoint ranges over). *)

val slots_of_check : Zodiac_iac.Program.t -> Zodiac_spec.Check.t -> slot list
val read_slot : Zodiac_iac.Program.t -> slot -> Zodiac_iac.Value.t
val write_slot : Zodiac_iac.Program.t -> slot -> Zodiac_iac.Value.t -> Zodiac_iac.Program.t

val slot_form :
  Zodiac_iac.Program.t -> Zodiac_spec.Check.t -> (slot * Zodiac_iac.Value.t list) list -> bool
(** [slot_form prog check scope]: whether a constraint of [check] over
    the [scope] slots of [prog], each with the values it may take, can
    be decided by {!Zodiac_spec.Eval.holds_slots} over [prog]'s own
    graph, with the same verdict as writing the values ({!write_slot})
    and rebuilding the graph. It asks that every slot's write be
    faithful ({!Zodiac_iac.Path.location}); that no slot sit at or
    under another slot of the same resource, or at or above a
    collection an index variable of the check ranges over; and, when
    the check has a [conn], [path], [coconn], [copath] or degree term,
    that neither a slot's value in [prog] nor any value it may take
    holds a reference. The scope must hold every slot of [check]
    ({!slots_of_check}) on each resource it names, as {!negative}'s
    scopes do: a read no slot matches comes from [prog]. *)

type counters
(** Counts summed over the {!negative} calls given them; domain-safe. *)

val counters : unit -> counters

val counter_totals : counters -> (string * int) list
(** [solver.solves], [solver.unsat] (no solution found),
    [solver.nodes], [solver.budget_hits] (solves that spent the node
    budget), predicate calls by constraint ([solver.calls.target],
    [.hard], [.soft]) and by evaluation ([solver.calls.slot_form],
    [solver.calls.fallback]: written program and rebuilt graph). Each
    is a pure function of the calls' inputs. *)

val negative :
  ?options:options ->
  ?counters:counters ->
  provider:Zodiac_provider.Provider.t ->
  kb:Zodiac_kb.Kb.t ->
  donors:(string * Zodiac_iac.Program.t) list ->
  target:Zodiac_spec.Eval.compiled ->
  hard:Zodiac_spec.Eval.compiled list ->
  soft:Zodiac_spec.Eval.compiled list ->
  Testcase.tp ->
  result option
