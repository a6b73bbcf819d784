(** Live updates to an existing deployment (§1).

    Deployment failures do not only threaten initial provisioning:
    updating infrastructure that is already serving traffic is riskier
    still, because some attribute changes cannot be applied in place —
    Azure forces the resource (and transitively everything referencing
    it) to be destroyed and recreated. This module plans an update the
    way [terraform plan] would and simulates applying it, reusing the
    semantic rule engine for the create steps. *)

type action =
  | Create of Zodiac_iac.Resource.id
  | Update_in_place of Zodiac_iac.Resource.id * string list
      (** changed attribute paths, all mutable *)
  | Replace of Zodiac_iac.Resource.id * string list
      (** changed attribute paths, at least one immutable — destroy and
          recreate, cascading to dependents *)
  | Destroy of Zodiac_iac.Resource.id
  | Noop of Zodiac_iac.Resource.id

val immutable_attrs : Zodiac_provider.Provider.t -> string -> string list
(** Attribute paths that force replacement for a resource type
    (names and locations everywhere; plus type-specific ones such as
    [VPC.address_space] — the paper's CIDR-fix example). *)

val plan :
  provider:Zodiac_provider.Provider.t ->
  current:Zodiac_iac.Program.t ->
  desired:Zodiac_iac.Program.t ->
  action list
(** Diff two programs into actions. Replacement cascades: a resource
    transitively referencing a replaced one is replaced as well. *)

type result = {
  actions : action list;
  recreated : Zodiac_iac.Resource.id list;
      (** resources destroyed and recreated (service disruption) *)
  outcome : Arm.outcome;  (** of deploying the desired program *)
}

val apply :
  provider:Zodiac_provider.Provider.t ->
  ?rules:Zodiac_provider.Provider.rule list ->
  current:Zodiac_iac.Program.t ->
  desired:Zodiac_iac.Program.t ->
  unit ->
  result
(** Simulate the update. The desired program goes through the full
    five-phase deployment validation; a failure mid-update leaves the
    recreated resources destroyed — exactly the paper's rollback
    hazard. *)

val disruption : result -> int
(** Number of resources that incur downtime (recreated), the
    update-time analogue of the rollback radius. *)
