(** Attribute values of IaC resources.

    A Terraform attribute value is a scalar, a list, a nested block, or a
    reference to another resource's attribute (the glue that forms the
    resource graph). Values are immutable. *)

type reference = {
  rtype : string;  (** referenced resource type, e.g. ["SUBNET"] *)
  rname : string;  (** referenced resource local name, e.g. ["a"] *)
  attr : string;  (** referenced attribute, e.g. ["id"] *)
}
(** A symbolic reference [SUBNET.a.id] appearing inside an attribute. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Block of (string * t) list  (** nested attribute block *)
  | Ref of reference

val reference : string -> string -> string -> t
(** [reference rtype rname attr] is [Ref {rtype; rname; attr}]. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val is_null : t -> bool
(** True only for [Null]. *)

val to_string : t -> string
(** Human-readable rendering, e.g. for error messages. *)

val pp : Format.formatter -> t -> unit

val str : t -> string option
(** [Some s] when the value is [Str s]. *)

val int : t -> int option
val bool : t -> bool option

val refs : t -> reference list
(** All references contained anywhere inside the value, in order. *)

val map_refs : (reference -> t) -> t -> t
(** [map_refs f v] replaces every reference [r] by [f r], recursively. *)

val cidr : t -> Zodiac_util.Cidr.t option
(** Parse a [Str] value as an IPv4 CIDR block. *)

val write : Zodiac_util.Codec.sink -> t -> unit
(** Binary codec for the warm-start cache; exact inverse of {!read}. *)

val read : Zodiac_util.Codec.src -> t
(** @raise Zodiac_util.Codec.Corrupt on malformed input. *)

val codec : t Zodiac_util.Codec.t
(** {!write} and {!read} as one typed codec. *)

val to_json : t -> Zodiac_util.Json.t
(** References encode as [{"__ref__": "TYPE.name.attr"}]. *)

val of_json : Zodiac_util.Json.t -> t
(** Inverse of {!to_json}. Unknown JSON shapes map to closest value. *)
