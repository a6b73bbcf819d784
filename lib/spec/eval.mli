(** Evaluation of semantic checks over an IaC resource graph.

    A check instance is an injective assignment of the check's bound
    variables to resources of the declared types, extended with values
    for any index variables (quantified over repeated-block elements).
    Distinct index variables take pairwise-distinct positions, so
    [rule\[i\]] and [rule\[j\]] never alias the same element. The check
    holds on a graph iff no instance satisfies the condition while
    falsifying the statement. *)

type assignment = (string * Zodiac_iac.Resource.id) list
(** Bound variable -> resource. *)

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

val term_value :
  ?defaults:defaults ->
  Zodiac_iac.Graph.t ->
  assignment ->
  (string * int) list ->
  Check.term ->
  Zodiac_iac.Value.t
(** Evaluate a term under an assignment and index environment, reading
    attributes with {!Zodiac_iac.Path.get}. A missing attribute takes
    the default of its index-stripped path, else [Null]. *)

val eval_expr :
  ?defaults:defaults ->
  Zodiac_iac.Graph.t ->
  assignment ->
  (string * int) list ->
  Check.expr ->
  bool

val stats : ?defaults:defaults -> Zodiac_iac.Graph.t -> Check.t -> stats

val holds : ?defaults:defaults -> Zodiac_iac.Graph.t -> Check.t -> bool
(** No violating instance exists. Vacuously true when the condition
    never fires. *)

val occurrences : ?defaults:defaults -> Zodiac_iac.Graph.t -> Check.t -> int

val violations :
  ?defaults:defaults -> Zodiac_iac.Graph.t -> Check.t -> assignment list
(** Assignments (resource part only) with some instance where the
    condition holds and the statement fails; duplicates removed. *)

val witnesses :
  ?defaults:defaults -> Zodiac_iac.Graph.t -> Check.t -> assignment list
(** Assignments with some instance where condition and statement both
    hold — the raw material for positive test cases. *)

val first_witness :
  ?defaults:defaults -> Zodiac_iac.Graph.t -> Check.t -> assignment option
(** Like {!witnesses} but stops at the first hit (corpus scans). *)

val first_violation :
  ?defaults:defaults -> Zodiac_iac.Graph.t -> Check.t -> assignment option
(** Like {!violations} but stops at the first hit. *)

val violating_index_env :
  ?defaults:defaults ->
  Zodiac_iac.Graph.t ->
  Check.t ->
  assignment ->
  (string * int) list option
(** For a known violating assignment, an index environment under which
    the condition holds and the statement fails ([Some []] for checks
    without index variables). Used for diagnosis. *)
