(** The AWS resource catalogue: canonical schemas and the Terraform
    name mapping. *)

val schemas : Zodiac_iac.Schema.t list
val find : string -> Zodiac_iac.Schema.t option
val type_names : string list

val of_terraform : string -> string option
(** Canonical type of a Terraform type name, e.g. ["aws_vpc"] ↦ ["VPC"]. *)

val to_terraform : string -> string
(** Terraform type name of a canonical type; unknown names map to
    themselves. *)

val reserved_names : (string * string) list
(** Empty: AWS reserves no subnet names. *)
