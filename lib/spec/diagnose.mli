(** Human-readable diagnosis of check violations.

    A violation report names the bound resources and explains which
    part of the statement failed with the actual values involved —
    e.g. ["r1 = VM.web: location = \"westus\"; r2 = NIC.nic0: location
    = \"eastus\" — expected them to be equal"]. Used by the CLI's scan
    output and the examples. Values come from the compiled check, the
    evaluator that found the violation. *)

type t = {
  check : Check.t;
  assignment : Eval.assignment;
  bindings : (string * string) list;  (** var -> "TYPE.name" *)
  explanation : string;  (** why the statement fails, with values *)
}

val violation :
  ?defaults:Eval.defaults ->
  Zodiac_iac.Graph.t ->
  Eval.compiled ->
  Eval.assignment ->
  t
(** Diagnose one violating assignment (as returned by
    {!Eval.violations}). *)

val all :
  ?defaults:Eval.defaults -> Zodiac_iac.Graph.t -> Eval.compiled -> t list
(** Diagnose every violation of a check on a graph. *)

val to_string : t -> string
(** Multi-line rendering: the check, the bindings, the explanation. *)
