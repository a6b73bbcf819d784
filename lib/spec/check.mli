(** The semantic-check assertion language (Figure 4 of the paper).

    A check is [let r1:t1, ..., rn:tn in cond => stmt]: for every
    (injective) assignment of the bound variables to resources of the
    declared types in an IaC graph, if [cond] holds then [stmt] must
    hold.

    Attribute paths follow {!Zodiac_iac.Path}'s grammar; their index
    variables ([rule\[i\].priority]) are implicitly universally
    quantified over the elements of the indexed collections, which is
    how intra-resource checks over repeated blocks (security rules,
    routes) are expressed. *)

type binding = { var : string; btype : string }

type endpoint = { var : string; attr : string }
(** [r.attr] — [attr] is a {!Zodiac_iac.Path} in its text form. *)

type cmp_op = Eq | Ne | Le | Ge | Lt | Gt

type func = Overlap | Contain | Length

type term =
  | Const of Zodiac_iac.Value.t
  | Attr of endpoint
  | Indeg of string * Zodiac_iac.Graph.type_spec
  | Outdeg of string * Zodiac_iac.Graph.type_spec

type expr =
  | Conn of endpoint * endpoint
  | Path of string * string
  | Coconn of (endpoint * endpoint) * (endpoint * endpoint)
  | Copath of (string * string) * (string * string)
  | Cmp of cmp_op * term * term
  | Func of func * term * term
      (** [Func (Length, t1, t2)] asserts the length of list/string [t1]
          equals [t2]; [Overlap]/[Contain] operate on CIDR values. *)
  | Not of expr
  | And of expr list

type category =
  | Intra  (** single resource, attribute-only *)
  | Inter_no_agg  (** multiple resources, no counting *)
  | Inter_agg  (** uses indegree/outdegree *)
  | Interpolated  (** quantitative check completed by the LLM oracle *)

type source = Mined | Llm_interpolated | Authored

type t = {
  cid : string;  (** stable identifier *)
  bindings : binding list;
  cond : expr;
  stmt : expr;
  source : source;
}

val make : ?cid:string -> ?source:source -> binding list -> expr -> expr -> t
(** When [cid] is omitted a digest of the printed form is used, so
    structurally equal checks share an id. *)

val category : t -> category
(** Structural classification, with {!Llm_interpolated} provenance
    taking precedence. *)

val binding_type : t -> string -> string option
(** Declared type of a bound variable. *)

val attrs_of_expr : expr -> endpoint list
(** Every attribute endpoint mentioned in the expression. *)

val index_vars : t -> string list
(** {!Zodiac_iac.Path.index_vars} over every endpoint, in order. *)

val strip_indices : string -> string
(** {!Zodiac_iac.Path.strip} on a path's text. *)

val write : Zodiac_util.Codec.sink -> t -> unit
(** Binary codec for the warm-start cache. The cid is stored verbatim,
    so {!read} returns a field-identical check. *)

val read : Zodiac_util.Codec.src -> t
(** @raise Zodiac_util.Codec.Corrupt on malformed input. *)

val equal : t -> t -> bool
(** Structural equality of bindings/cond/stmt (ignores id and source). *)

val compare : t -> t -> int
