(** A single IaC resource block.

    Resources are identified by (type, local name) — mirroring Terraform's
    [resource "azurerm_subnet" "a" { ... }]. Attribute access takes the
    paths of {!Path}, read with its walker over the resource's
    attributes as one block. *)

type id = { rtype : string; rname : string }
(** Stable identity of a resource within a program. *)

type t = {
  rtype : string;
  rname : string;
  attrs : (string * Value.t) list;
}

val make : string -> string -> (string * Value.t) list -> t
val id : t -> id
val id_to_string : id -> string
val equal_id : id -> id -> bool
val compare_id : id -> id -> int

val attr : t -> string -> Value.t option
(** Top-level attribute lookup (no path traversal). *)

val get : t -> string -> Value.t
(** [Path.get] of the parsed path; [Null] when absent. *)

val get_all : t -> string -> Value.t list
(** [Path.get_all] of the parsed path. *)

val set_path : t -> Path.t -> Value.t -> t
(** [Path.set] on the attributes, except that setting [Null] on a
    one-segment unindexed path removes the attribute. *)

val set : t -> string -> Value.t -> t
(** {!set_path} of the parsed path. *)

val remove_attr : t -> string -> t
(** Remove a top-level attribute if present. *)

val references : t -> (string * Value.reference) list
(** Every reference in the resource with the dotted attribute path where
    it occurs. List positions are not encoded in the path. *)

val rename_refs : old_id:id -> new_id:id -> t -> t
(** Rewrite all references to [old_id] so they point at [new_id]. *)

val attr_paths : t -> string list
(** The paths of [Path.leaves] over the attributes. *)

val write : Zodiac_util.Codec.sink -> t -> unit
(** Binary codec for the warm-start cache; exact inverse of {!read}. *)

val read : Zodiac_util.Codec.src -> t
(** @raise Zodiac_util.Codec.Corrupt on malformed input. *)

val to_json : t -> Zodiac_util.Json.t
val of_json : Zodiac_util.Json.t -> t option
val pp : Format.formatter -> t -> unit
