(** The AWS backend. *)

val provider : Zodiac_provider.Provider.t
(** Catalogue, region and instance-type knowledge, the hidden
    ground-truth rule set, deployment-phase semantics and corpus
    templates, as one provider record. *)
