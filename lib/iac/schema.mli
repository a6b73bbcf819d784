(** Provider schema model (the paper's Class-1 "IaC native constraints").

    A resource schema lists its attributes with a requirement class
    (required / optional / computed), a type, and — when the provider
    schema declares them — value formats such as enumerations. Deeper
    provider-specific knowledge (reserved names, CIDR semantics) and
    reference semantics are mined separately into the KB. *)

type requirement = Required | Optional | Computed

type format =
  | Free_string  (** arbitrary string *)
  | Enum of string list  (** closed set of legal values *)
  | Cidr_format  (** IPv4 CIDR range *)
  | Port_format  (** TCP/UDP port number or range *)
  | Region  (** cloud region name *)
  | Name_format  (** resource name (unique within its namespace) *)
  | Id_format  (** opaque provider-assigned identifier *)

type attr_type =
  | T_string
  | T_int
  | T_bool
  | T_list of attr_type
  | T_block of attr list

and attr = {
  aname : string;
  atype : attr_type;
  req : requirement;
  format : format;
  refs_to : (string * string) list;
      (** resource types/attributes this attribute may legally reference
          (the provider registry's reference semantics) *)
  default : Value.t option;
      (** provider-side default applied when the attribute is omitted *)
}

type t = {
  type_name : string;
  attrs : attr list;
  slow_create : bool;
      (** resources that deploy asynchronously (gateways, firewalls) —
          their violations surface in the polling phase *)
  description : string;
}

val attr_v :
  ?req:requirement ->
  ?format:format ->
  ?refs_to:(string * string) list ->
  ?default:Value.t ->
  string ->
  attr_type ->
  attr
(** Attribute constructor with the common defaults
    ([Optional], [Free_string], no references, no default). *)

val make :
  ?slow_create:bool -> ?description:string -> string -> attr list -> t

val find_attr : t -> Path.t -> attr option
(** Path lookup descending through [T_block] and [T_list]; indices are
    ignored. *)

val required_attrs : t -> attr list
(** Top-level required attributes. *)

val attr_count : t -> int
(** Total number of attributes including nested ones (Figure 7a's
    x-axis). *)

val leaf_paths : t -> (string * attr) list
(** Dotted paths to every leaf (non-block) attribute. *)

val enum_values : t -> string -> string list option
(** Declared enumeration for a dotted path, if any. *)
