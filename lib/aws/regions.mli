(** AWS regions and their availability zones. *)

val all : string list
val is_region : string -> bool

val zones : string -> string list
(** Zone names of a region (region ^ suffix), [[]] for an unknown
    region. *)
