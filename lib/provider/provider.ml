(** The first-class provider interface (ROADMAP item 3).

    Everything the pipeline knows about a cloud lives behind one record:
    the resource catalogue (schemas, canonical/Terraform name mapping),
    region and sku knowledge, the hidden ground-truth rule set the
    deployment simulator enforces, the update/quota semantics, the
    oracle's "documentation", and the corpus scenario templates. The
    mining, validation, serving and CLI layers consume only this record;
    [Zodiac_azure] and [Zodiac_aws] each export one value of it. *)

module Value = Zodiac_iac.Value
module Schema = Zodiac_iac.Schema
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Check = Zodiac_spec.Check
module Spec_parser = Zodiac_spec.Spec_parser
module Prng = Zodiac_util.Prng

(* ---- deployment phases and rules ----------------------------------

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
  check : Check.t;
  phase : phase;
  message : string;  (** cloud error message shown on violation *)
}

let phase_to_string = function
  | Plugin -> "plugin"
  | Pre_sync -> "pre-sync"
  | Create -> "create"
  | Polling -> "polling"
  | Post_sync -> "post-sync"

(* [rule id phase message spec] parses [spec]; raises [Invalid_argument]
   on a malformed spec. *)
let rule rule_id phase message src =
  match Spec_parser.parse src with
  | Ok check -> { rule_id; check; phase; message }
  | Error e -> invalid_arg (Printf.sprintf "Rules: bad rule %s: %s" rule_id e)

(* Lookup by [rule_id]. *)
let find rules rule_id =
  List.find_opt (fun r -> String.equal r.rule_id rule_id) rules

(* ---- oracle knowledge ---------------------------------------------

   The constrained quantity of a mined numeric candidate, as decomposed
   by the LLM oracle: a degree bound towards a peer type, or a numeric
   attribute bound. Providers answer [documented_limit] queries over
   these. *)

type quantity = Deg of [ `In | `Out ] * string | Num of string

(* ---- corpus builder context ---------------------------------------

   Scenario templates are provider code, but they share one builder
   context so the generator's PRNG discipline (one derived stream per
   project, calls in construction order) is uniform across providers. *)

module Build = struct
  type ctx = {
    rng : Prng.t;
    region : string;
    token : string;  (* per-project uniquifier, like real naming prefixes *)
    mutable resources : Resource.t list;
    mutable counter : int;
  }

  let new_ctx ~regions rng =
    (* Most projects are single-region, like real deployments. *)
    let region = Prng.choose_list rng regions in
    let token = Printf.sprintf "%04x" (Prng.int rng 0xFFFF) in
    { rng; region; token; resources = []; counter = 0 }

  let fresh ctx base =
    ctx.counter <- ctx.counter + 1;
    Printf.sprintf "%s%d%s" base ctx.counter ctx.token

  let add ctx rtype rname attrs =
    let r = Resource.make rtype rname attrs in
    ctx.resources <- ctx.resources @ [ r ];
    r

  let str s = Value.Str s
  let int i = Value.Int i
  let bool b = Value.Bool b
  let refv rtype rname attr = Value.reference rtype rname attr
  let ref_to r attr = refv r.Resource.rtype r.Resource.rname attr
end

(* ---- the provider record ------------------------------------------ *)

type t = {
  name : string;  (** CLI name, e.g. ["azure"] *)
  tf_prefix : string;  (** Terraform resource-type prefix, e.g. ["azurerm_"] *)
  (* catalogue *)
  schemas : Schema.t list;
  find_schema : string -> Schema.t option;
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
    cond:(string * Value.t) option ->
    quantity:quantity ->
    op:Check.cmp_op ->
    int option;
  plausible_markers : string list;
      (** marker constants that make a mined check "sound like" a real
          cloud constraint *)
  (* corpus templates *)
  scenarios : (int * (string * (Build.ctx -> unit))) list;
  injectors : (string * (Prng.t -> Program.t -> Program.t option)) list;
  add_unattended : Build.ctx -> unit;
}

let find_schema_exn t ty =
  match t.find_schema ty with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "%s: unknown resource type %s" t.name ty)

(* Provider-side attribute defaults, derived from the schemas. *)
let defaults t ~rtype ~attr =
  match t.find_schema rtype with
  | None -> None
  | Some schema -> (
      match Schema.find_attr schema attr with
      | Some { Schema.default = Some d; _ } -> Some d
      | Some _ | None -> None)

let scenario_names t = List.map (fun (_, (name, _)) -> name) t.scenarios

(* The cache-key component: warm artifacts must never cross providers.
   The name alone identifies the knowledge tables (they are code, so
   they change only with the binary, which cache stages already absorb
   through their content keys). *)
let fingerprint t =
  Zodiac_util.Codec.fingerprint [ "provider"; t.name; t.tf_prefix ]
