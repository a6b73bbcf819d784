(** The first-class provider interface.

    Everything the pipeline knows about a cloud lives behind one record:
    the resource catalogue (schemas, canonical/Terraform name mapping),
    region and sku knowledge, the hidden ground-truth rule set the
    deployment simulator enforces, the update/quota semantics, the
    oracle's "documentation", and the corpus scenario templates. The
    mining, validation, serving and CLI layers consume only this record;
    [Zodiac_azure] and [Zodiac_aws] each export one value of it. *)

(** {1 Deployment phases and rules}

    The five-phase deployment model (plugin validation, pre-deployment
    state sync, creation, async polling, post-deployment sync) is shared
    by every provider; only the rule content differs. A rule set plays
    the role of a cloud's opaque backend requirements: the mining and
    validation engines never read it — they only observe deployment
    outcomes, preserving the paper's blackbox setting. *)

type phase =
  | Plugin  (** rejected by provider plugin before any API call *)
  | Pre_sync  (** state synchronization conflict ("already exists") *)
  | Create  (** creation request rejected by the cloud *)
  | Polling  (** asynchronous provisioning failure on slow resources *)
  | Post_sync  (** deployed, but cloud/IaC states are inconsistent *)

type rule = {
  rule_id : string;
  check : Zodiac_spec.Check.t;
  compiled : Zodiac_spec.Eval.compiled;
      (** [check], compiled once with its rule set *)
  phase : phase;
  message : string;  (** cloud error message shown on violation *)
}

val phase_to_string : phase -> string

val rule : string -> phase -> string -> string -> rule
(** [rule id phase message spec] parses and compiles [spec].
    @raise Invalid_argument on a malformed spec. *)

val find : rule list -> string -> rule option
(** Lookup by [rule_id]. *)

(** {1 Oracle knowledge} *)

(** The constrained quantity of a mined numeric candidate, as decomposed
    by the LLM oracle: a degree bound towards a peer type, or a numeric
    attribute bound. Providers answer [documented_limit] queries over
    these. *)
type quantity = Deg of [ `In | `Out ] * string | Num of string

(** {1 Corpus builder context}

    Scenario templates are provider code, but they share one builder
    context so the generator's PRNG discipline (one derived stream per
    project, calls in construction order) is uniform across providers. *)

module Build : sig
  type ctx = {
    rng : Zodiac_util.Prng.t;
    region : string;
    token : string;  (** per-project uniquifier, like real naming prefixes *)
    mutable resources : Zodiac_iac.Resource.t list;
    mutable counter : int;
  }

  val new_ctx : regions:string list -> Zodiac_util.Prng.t -> ctx
  (** Picks the project's region (most projects are single-region) and
      token. *)

  val fresh : ctx -> string -> string
  (** A project-unique name with the given stem. *)

  val add :
    ctx -> string -> string -> (string * Zodiac_iac.Value.t) list -> Zodiac_iac.Resource.t
  (** [add ctx rtype rname attrs] appends a resource to the project. *)

  val str : string -> Zodiac_iac.Value.t
  val int : int -> Zodiac_iac.Value.t
  val bool : bool -> Zodiac_iac.Value.t

  val ref_to : Zodiac_iac.Resource.t -> string -> Zodiac_iac.Value.t
  (** A reference to an attribute of a resource. *)
end

(** {1 The provider record} *)

type t = {
  name : string;  (** CLI name, e.g. ["azure"] *)
  tf_prefix : string;  (** Terraform resource-type prefix, e.g. ["azurerm_"] *)
  (* catalogue *)
  schemas : Zodiac_iac.Schema.t list;
  find_schema : string -> Zodiac_iac.Schema.t option;
  type_names : string list;
  of_terraform : string -> string option;
  to_terraform : string -> string;
  reserved_names : (string * string) list;
      (** provider-reserved subnet names and the single type allowed to
          occupy them *)
  (* regions *)
  regions : string list;
  is_region : string -> bool;
  (* deployment semantics *)
  ground_truth : unit -> rule list;
      (** the hidden ground-truth rule set the simulator enforces *)
  name_scope_attr : string -> string option;
      (** naming scope: the attribute within which names of this type
          must be unique (global namespace when [None]) *)
  sku_location_attr : string -> string option;
      (** the sku-bearing attribute checked for regional availability *)
  sku_restricted_regions : (string * string list) list;
      (** regions where a sku is NOT offered *)
  immutable_attrs : string -> string list;
      (** attributes whose change forces resource replacement *)
  (* oracle knowledge *)
  documented_limit :
    subject:string ->
    cond:(string * Zodiac_iac.Value.t) option ->
    quantity:quantity ->
    op:Zodiac_spec.Check.cmp_op ->
    int option;
  plausible_markers : string list;
      (** marker constants that make a mined check "sound like" a real
          cloud constraint *)
  (* corpus templates *)
  scenarios : (int * (string * (Build.ctx -> unit))) list;
  injectors :
    (string
    * (Zodiac_util.Prng.t -> Zodiac_iac.Program.t -> Zodiac_iac.Program.t option))
    list;
  add_unattended : Build.ctx -> unit;
}

val defaults : t -> rtype:string -> attr:string -> Zodiac_iac.Value.t option
(** The schema default of a dotted attribute path, if any. Each
    (provider, type, attribute) is resolved on first lookup and then
    shared by every domain. *)

val scenario_names : t -> string list

val fingerprint : t -> string
(** The cache-key component: warm artifacts must never cross providers.
    The name alone identifies the knowledge tables (they are code, so
    they change only with the binary, which cache stages already absorb
    through their content keys). *)
