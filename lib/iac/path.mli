(** Attribute paths: the one place that knows the [a.b\[i\].c] format.

    {v
    path    := segment ('.' segment)*
    segment := FIELD | FIELD '[' x ']'     x one lowercase letter a..z
    v}
    A [FIELD] is non-empty and holds no ['.'], ['\['] or ['\]']. The
    bracket names an index variable: [rule\[i\].priority] is the
    priority of element [i] of the [rule] collection.

    The walker: a field step takes the field's first occurrence in a
    block. An unindexed step into a list enters its first element
    ({!get}) or every element ({!get_all}), recursively for lists of
    lists. An indexed step selects one element of the field's value,
    whose elements are a list's items, none for [Null], and any other
    value itself; an index variable the environment leaves unbound
    selects nothing. *)

type index = Var of string | At of int  (** [At]: bound by {!bind}, never parsed *)

type segment = { field : string; index : index option }

type t = segment list

type env = (string * int) list
(** Index variable -> element position. *)

val parse : string -> (t, string) result
(** Strict: [Error] names the segment that breaks the grammar
    ([rule\[ab\]], [rule\[0\]], [rule\[i], [rule\[\]], [a..b]). *)

val of_string : string -> t
(** Total: a segment that breaks the grammar is a plain field named by
    its whole text, so [to_string (of_string s) = s]. *)

val field : string -> t
val to_string : t -> string

val strip : t -> t
(** Drop every index: [rule\[i\].priority] -> [rule.priority]. *)

val index_vars : t -> string list
(** In order of first occurrence, without duplicates. *)

val bind : env -> t -> t
(** Replace each index variable bound in [env] by its position. *)

val get : ?env:env -> t -> Value.t -> Value.t
(** The value reached, or [Null]. *)

val get_all : t -> Value.t -> Value.t list
(** Every value reached, in document order. *)

val index_range : ?env:env -> t -> string -> Value.t -> int option
(** How many elements index variable [x] ranges over, with the
    variables before it bound by [env]; [None] when [x] indexes no
    segment. *)

val set : t -> Value.t -> Value.t -> Value.t
(** [set p x v] is [v] with the value at [p] replaced by [x]. A missing
    field is appended; an unindexed step into a non-empty list updates
    its head; a step from any other non-block value continues from an
    empty block and drops that step's field ([a.b.c] set on a scalar
    [a] gives [a = {c = x}]). An indexed step updates only the element
    {!bind} selected, and nothing when there is none. *)

val equal_bound : env -> t -> t -> bool
(** [equal_bound env p q] is [bind env p = q], without building the
    bound path. *)

type step = Field of string | Elem of int
(** A field of a block, or an element of a list. *)

val location : t -> Value.t -> step list option
(** Where [set p x v] writes, as the steps {!get} takes to read it back
    ({!get} enters a list at its head: [Elem 0]). [Some] only when that
    write is faithful: [get p (set p x v) = x] for every [x], and [set]
    changes nothing outside that place. It is [None] when the write
    would drop a segment (a missing or scalar intermediate), select no
    element, or touch a field that occurs twice in its block. *)

type leaf = { path : string; head : Value.t; all : Value.t list }

val leaves : (string * Value.t) list -> leaf list
(** One walk over a block's fields: each dotted path to a leaf (a
    scalar, an empty list or an empty block; lists fan out) once, in
    order of first occurrence, with what {!get} ([head]) and
    {!get_all} ([all]) read there. *)
