(** Provider registry: every backend the binary links, keyed by CLI
    name. Azure is the default for backward compatibility with the
    single-provider tool. *)

val all : Zodiac_provider.Provider.t list
val default : Zodiac_provider.Provider.t
val find : string -> Zodiac_provider.Provider.t option
val names : string list

val of_tf_type : string -> Zodiac_provider.Provider.t option
(** The provider whose Terraform prefix starts a resource type name
    like ["aws_instance"]; the first in {!all} when several do. *)

val detect_source : string -> Zodiac_provider.Provider.t option
(** The provider of raw Terraform source: the one whose resource-type
    prefix occurs most often (non-overlapping occurrences), the first
    in {!all} on a tie, [None] when no prefix appears at all. Serve runs
    this on every request, before the scan-cache lookup. *)
