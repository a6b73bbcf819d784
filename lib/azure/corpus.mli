(** Azure corpus templates: weighted scenarios, violation injectors and
    unattended resources. *)

val scenarios :
  (int * (string * (Zodiac_provider.Provider.Build.ctx -> unit))) list

val injectors :
  (string
  * (Zodiac_util.Prng.t -> Zodiac_iac.Program.t -> Zodiac_iac.Program.t option))
  list

val add_unattended : Zodiac_provider.Provider.Build.ctx -> unit
