(** Concrete syntax for semantic checks (inverse of {!Spec_parser}).

    Example output:
    [let r1:GW, r2:SUBNET in conn(r1.ip_config.subnet_id -> r2.id) =>
     outdegree(r2, !GW) == 0] *)

val expr_to_string : Check.expr -> string
val to_string : Check.t -> string
val pp : Format.formatter -> Check.t -> unit

val describe : Check.t -> string
(** One-line human description including id and category. *)
