(** A finite-domain constraint solver with soft constraints and
    branch-and-bound minimization — Zodiac's stand-in for Z3's MaxSMT.

    The mutation search space of §4.1 is finite: enum attributes range
    over their legal values, locations over the region list, CIDRs over
    a candidate block set, optional virtual resources over
    included/excluded. Negative-test-case generation therefore reduces
    to a weighted Max-CSP: hard constraints encode the semantic KB and
    the checks that must stay satisfied, soft constraints encode the
    checks in [R_c] that may be collaterally violated, and per-value
    costs implement change minimization (prefer the original value).

    Constraints are predicates over declared variable scopes. The
    solver runs depth-first backtracking search: it assigns the
    unassigned variable of lowest priority class (smallest domain
    first, then lowest index), tries its values cheapest first, and
    prunes with branch-and-bound on the accumulated penalty. A
    predicate runs once its whole scope is assigned, and at most once
    per distinct scope assignment in one [solve]: verdicts are cached
    by the value indices of the scope. There is no propagation. *)

type problem
type var

val create : unit -> problem

val new_var : problem -> name:string -> Zodiac_iac.Value.t list -> var
(** A decision variable with a non-empty finite domain. *)

val set_value_cost :
  problem -> var -> (Zodiac_iac.Value.t -> int) -> unit
(** Cost charged when the variable takes a value (0 by default). Used
    to prefer original attribute values and minimal mutations. [solve]
    asks it once per value, so it must be pure. *)

val set_priority : problem -> var -> int -> unit
(** Variable-ordering class (default 1; lower assigned first). The
    mutation engine assigns the target check's slots priority 0 so the
    violation is decided at the top of the search tree. *)

val add_hard :
  problem -> name:string -> var list -> ((var -> Zodiac_iac.Value.t) -> bool) -> unit
(** A hard constraint over the given scope. The predicate is consulted
    once every scope variable is assigned, and at most once per distinct
    assignment of the scope in one [solve], so it must be pure and read
    only the scope's variables (reading an unassigned one raises
    [Invalid_argument]). A scope may name a variable twice; a constraint
    with an empty scope is consulted only at complete assignments. *)

val add_soft :
  problem ->
  name:string ->
  weight:int ->
  var list ->
  ((var -> Zodiac_iac.Value.t) -> bool) ->
  unit
(** A soft constraint, consulted as a hard one is: violation adds
    [weight] to the objective, as many times as the variable whose
    assignment decides it occurs in the scope. A violated soft
    constraint with an empty scope is named by {!violated_soft} but its
    weight is never charged. *)

type solution

val value : solution -> var -> Zodiac_iac.Value.t
val cost : solution -> int
(** Total penalty: value costs plus violated soft-constraint weights. *)

val violated_soft : solution -> string list
(** Names of soft constraints violated by the solution. *)

val solve : ?node_budget:int -> ?good_enough:int -> problem -> solution option
(** Minimize the objective subject to the hard constraints. [None]
    means UNSAT (or budget exhausted with no feasible assignment;
    default budget 200_000 nodes). When a solution with cost at most
    [good_enough] is found, the search stops immediately — with
    cheapest-value-first ordering this yields near-minimal mutations at
    a fraction of the proof-of-optimality cost. Deterministic. *)

val stats_nodes : problem -> int
(** Search nodes explored by the last [solve] call. *)
