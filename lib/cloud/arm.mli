(** The simulated Azure Resource Manager deployment engine.

    [deploy] walks the program in dependency order (referenced resources
    first) and, for each resource about to be created, replays the five
    phases of Table 3:

    + {b plugin} — provider-side validation: schema conformance
      (required attributes, enum membership, region names, CIDR syntax)
      and plugin-phase ground-truth rules;
    + {b pre-sync} — state synchronization: name collisions within the
      resource's naming scope, plus pre-sync rules;
    + {b create} — the creation request: dangling references and the
      bulk of the ground-truth rules;
    + {b polling} — asynchronous provisioning failures (rules tagged
      polling, which live on slow-to-create resources);
    + {b post-sync} — after the whole deployment, rules whose violation
      silently leaves cloud and IaC state inconsistent.

    The first plugin/pre-sync/create/polling violation halts the
    deployment; post-sync issues are recorded even though every
    resource "deployed". *)

type failure = {
  resource : Zodiac_iac.Resource.id;  (** resource whose creation failed *)
  phase : Zodiac_provider.Provider.phase;
  rule_id : string;  (** ground-truth rule id, or an engine code such as
                         ["ENGINE-REQUIRED"] *)
  message : string;
  culprits : Zodiac_iac.Resource.id list;
      (** resources in the violating instance (fix targets) *)
}

type outcome = {
  deployed : Zodiac_iac.Resource.id list;  (** created before any failure *)
  failure : failure option;
  halted : Zodiac_iac.Resource.id list;  (** never attempted *)
  post_sync_issues : failure list;
}

val deploy :
  provider:Zodiac_provider.Provider.t ->
  ?rules:Zodiac_provider.Provider.rule list ->
  ?quota:Quota.t ->
  Zodiac_iac.Program.t ->
  outcome
(** Simulate a deployment against the provider's ground-truth rules
    (default: [provider.ground_truth ()]). Subscription quotas and
    regional sku availability — the paper's unsupported constraint
    classes — are enforced only when a {!Quota.t} is supplied (default
    {!Quota.unlimited}). Deterministic. *)

val success : outcome -> bool
(** No failure and no post-sync inconsistency. *)

val first_error : outcome -> failure option
(** The halting failure, or the first post-sync issue. *)

type radius = {
  halted_types : string list;  (** types blocked behind the failure *)
  rollback_types : string list;
      (** types that must be destroyed/recreated to roll out a fix *)
}

val blast_radius : Zodiac_iac.Program.t -> outcome -> radius
(** Impact of a failed deployment (Figure 6): the halting radius is the
    resource types that could not deploy; the rollback radius is the
    culprit resources plus every deployed resource transitively
    depending on them. Both empty on success. *)

val defaults : Zodiac_provider.Provider.t -> Zodiac_spec.Eval.defaults
(** The provider default lookup, for evaluating checks the way the
    cloud sees configurations. *)
