(** The Azure backend. *)

val provider : Zodiac_provider.Provider.t
(** Catalogue, region and sku knowledge, the hidden ground-truth rule
    set, deployment-phase semantics and corpus templates, as one
    provider record. *)
