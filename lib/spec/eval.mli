(** Evaluation of semantic checks over an IaC resource graph.

    A check instance is an injective assignment of the check's bound
    variables to resources of the declared types, extended with values
    for any index variables (quantified over repeated-block elements).
    Distinct index variables take pairwise-distinct positions, so
    [rule\[i\]] and [rule\[j\]] never alias the same element. The check
    holds on a graph iff no instance satisfies the condition while
    falsifying the statement.

    Checks are evaluated in compiled form. The compiled form parses
    each endpoint's path and strips its indices once, resolves every
    variable to its binding's slot and reads the check's index
    variables once; evaluation binds resources to slots directly and
    stops at the first hit where the answer allows it. {!compile}
    itself only wraps the check: the form is built on the first
    evaluation and kept, so loading a check set costs nothing for the
    checks no program reaches. Compile where a check set is loaded (a
    provider's rules, a scan's entries, the scheduler's candidates) and
    reuse the result for every program, request and deployment:
    building a form parses every endpoint (a few microseconds a check,
    several times what evaluating it on a typical program costs), so
    a check compiled per evaluation would pay that parse every time.

    A compiled check may be evaluated at once by every
    {!Zodiac_util.Parallel} domain and every daemon handler without a
    lock: its form is immutable once built and is published through an
    [Atomic] (domains that race on the first use build equal forms, and
    one is kept), and every evaluation keeps its state in values of its
    own. *)

type assignment = (string * Zodiac_iac.Resource.id) list
(** Bound variable -> resource, in binding order. *)

type defaults = rtype:string -> attr:string -> Zodiac_iac.Value.t option
(** Provider-side default lookup applied when an attribute is absent
    (e.g. [GW.active_active] defaults to [false]). *)

type stats = {
  instances : int;  (** total check instances enumerated *)
  cond_true : int;  (** instances whose condition holds (occurrences) *)
  stmt_true : int;  (** instances whose statement holds *)
  both_true : int;  (** instances where both hold *)
}

val no_defaults : defaults

type compiled

val compile : Check.t -> compiled
(** Cheap: the form is built on the first evaluation (see above). *)

val check : compiled -> Check.t
(** The check it was compiled from. *)

val stats : ?defaults:defaults -> Zodiac_iac.Graph.t -> compiled -> stats

val holds : ?defaults:defaults -> Zodiac_iac.Graph.t -> compiled -> bool
(** No violating instance exists; stops at the first violation.
    Vacuously true when the condition never fires. *)

type slots = (Zodiac_iac.Resource.id * (Zodiac_iac.Path.t * Zodiac_iac.Value.t) list) list
(** Per resource, index-bound paths (see {!Zodiac_iac.Path.bind}) with
    the values they read in place of the resource's own. *)

val holds_slots : ?defaults:defaults -> Zodiac_iac.Graph.t -> compiled -> slots -> bool
(** The slot form of {!holds}: the verdict on the graph's program as if
    each listed path of each listed resource held its listed value.
    An attribute read of a bound resource looks the resource up in the
    slots, then the path bound by the instance's index environment; a
    read no slot matches falls back to the resource, then to
    [defaults]. Index ranges, types and edges come from the graph
    unchanged.

    It equals {!holds} on the graph of the program with the values
    written ([Path.set] on each resource) only where such writes
    change nothing else the check reads: each write is faithful
    ({!Zodiac_iac.Path.location}), no written place is at or under
    another, none is at or above a collection an index variable ranges
    over, and, for a check with a [conn], [path], [coconn], [copath] or
    degree term, no write adds or removes a reference. Deciding that is
    the caller's part ([Zodiac_validation.Mutation] decides it once per
    solve). {!holds}, {!violations} and the other searches never read
    slots. *)

val occurrences : ?defaults:defaults -> Zodiac_iac.Graph.t -> compiled -> int

val violations :
  ?defaults:defaults -> Zodiac_iac.Graph.t -> compiled -> assignment list
(** Assignments (resource part only) with some instance where the
    condition holds and the statement fails, each once, the last
    enumerated first. *)

val witnesses :
  ?defaults:defaults -> Zodiac_iac.Graph.t -> compiled -> assignment list
(** Assignments with some instance where condition and statement both
    hold — the raw material for positive test cases. Ordered as
    {!violations}. *)

val first_witness :
  ?defaults:defaults -> Zodiac_iac.Graph.t -> compiled -> assignment option
(** The first witnessing assignment enumerated; stops there. *)

val first_violation :
  ?defaults:defaults -> Zodiac_iac.Graph.t -> compiled -> assignment option
(** The first violating assignment enumerated; stops there. *)

val violating_index_env :
  ?defaults:defaults ->
  Zodiac_iac.Graph.t ->
  compiled ->
  assignment ->
  Zodiac_iac.Path.env option
(** For an assignment {!violations} returned on the same graph, the
    first index environment under which the condition holds and the
    statement fails ([Some \[\]] for a violated check without index
    variables). *)

(** {2 Compiled expressions}

    The compiled statement, for explaining a violation ({!Diagnose})
    through the same evaluator. Each node mirrors the {!Check.expr} or
    {!Check.term} it came from; a [slot] is the position of the
    variable's binding, [-1] when no binding declares it. *)

type term = private
  | Const of Zodiac_iac.Value.t
  | Attr of {
      endpoint : Check.endpoint;
      slot : int;
      path : Zodiac_iac.Path.t;
      stripped : string;  (** the path without indices: the defaults key *)
    }
  | Indeg of { var : string; slot : int; spec : Zodiac_iac.Graph.type_spec }
  | Outdeg of { var : string; slot : int; spec : Zodiac_iac.Graph.type_spec }

type conn_end = private { endpoint : Check.endpoint; slot : int; stripped : string }
type node = private { var : string; slot : int }

type expr = private
  | Conn of conn_end * conn_end
  | Path of node * node
  | Coconn of (conn_end * conn_end) * (conn_end * conn_end)
  | Copath of (node * node) * (node * node)
  | Cmp of Check.cmp_op * term * term
  | Func of Check.func * term * term
  | Not of expr
  | And of expr list

val stmt : compiled -> expr

val source : expr -> Check.expr
(** The expression it was compiled from. *)

type instance
(** Resources bound to a compiled check's slots, and an index
    environment. *)

val instance :
  ?defaults:defaults ->
  Zodiac_iac.Graph.t ->
  compiled ->
  assignment ->
  Zodiac_iac.Path.env ->
  instance
(** @raise Invalid_argument when the assignment leaves a binding
    without a resource of the graph. *)

val eval : instance -> expr -> bool

val value : instance -> term -> Zodiac_iac.Value.t
(** A missing attribute takes the default of its index-stripped path,
    else [Null]. *)
