(** Minimal self-contained JSON representation.

    Terraform compiles HCL programs into JSON deployment plans; several
    Zodiac components (the plan format, baseline checkers, the KB dump)
    exchange data in JSON. No external JSON library is assumed. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!of_string} on malformed input, with a human message. *)

val to_string : ?pretty:bool -> t -> string
(** Serialize. [pretty] (default false) adds newlines and 2-space indent. *)

val to_buffer : ?pretty:bool -> Buffer.t -> t -> unit
(** {!to_string}, appended to a buffer the caller can reuse. *)

val of_string : string -> t
(** Parse a JSON document. @raise Parse_error on malformed input. *)

val of_string_result : ?max_bytes:int -> string -> (t, string) result
(** Exception-free {!of_string} for untrusted input (the [serve]
    protocol): malformed documents, truncated input, invalid escapes
    and — when [max_bytes] is given — oversized payloads all come back
    as [Error] with a human message, never an exception. *)

val member : string -> t -> t
(** [member key json] is the value bound to [key] in an object, or [Null]
    when absent or when [json] is not an object. *)

val to_list : t -> t list
(** The elements of a [List], or [] for any other constructor. *)

val string_value : t -> string option
(** [Some s] when the value is a [String]. *)

val int_value : t -> int option
(** [Some i] when the value is an [Int]. *)

val bool_value : t -> bool option
(** [Some b] when the value is a [Bool]. *)

val float_value : t -> float option
(** [Some f] for a [Float], [Some (float_of_int i)] for an [Int]. *)

val equal : t -> t -> bool
(** Structural equality with object keys order-sensitive. *)
