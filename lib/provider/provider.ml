module Value = Zodiac_iac.Value
module Schema = Zodiac_iac.Schema
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Check = Zodiac_spec.Check
module Spec_parser = Zodiac_spec.Spec_parser
module Eval = Zodiac_spec.Eval
module Prng = Zodiac_util.Prng

(* ---- deployment phases and rules ---------------------------------- *)

type phase = Plugin | Pre_sync | Create | Polling | Post_sync

type rule = {
  rule_id : string;
  check : Check.t;
  compiled : Eval.compiled;
  phase : phase;
  message : string;
}

let phase_to_string = function
  | Plugin -> "plugin"
  | Pre_sync -> "pre-sync"
  | Create -> "create"
  | Polling -> "polling"
  | Post_sync -> "post-sync"

let rule rule_id phase message src =
  match Spec_parser.parse src with
  | Ok check -> { rule_id; check; compiled = Eval.compile check; phase; message }
  | Error e -> invalid_arg (Printf.sprintf "Rules: bad rule %s: %s" rule_id e)

let find rules rule_id =
  List.find_opt (fun r -> String.equal r.rule_id rule_id) rules

(* ---- oracle knowledge --------------------------------------------- *)

type quantity = Deg of [ `In | `Out ] * string | Num of string

(* ---- corpus builder context --------------------------------------- *)

module Build = struct
  type ctx = {
    rng : Prng.t;
    region : string;
    token : string;
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
  let ref_to r attr = Value.reference r.Resource.rtype r.Resource.rname attr
end

(* ---- the provider record ------------------------------------------ *)

type t = {
  name : string;
  tf_prefix : string;
  schemas : Schema.t list;
  find_schema : string -> Schema.t option;
  type_names : string list;
  of_terraform : string -> string option;
  to_terraform : string -> string;
  reserved_names : (string * string) list;
  regions : string list;
  is_region : string -> bool;
  ground_truth : unit -> rule list;
  name_scope_attr : string -> string option;
  sku_location_attr : string -> string option;
  sku_restricted_regions : (string * string list) list;
  immutable_attrs : string -> string list;
  documented_limit :
    subject:string ->
    cond:(string * Value.t) option ->
    quantity:quantity ->
    op:Check.cmp_op ->
    int option;
  plausible_markers : string list;
  scenarios : (int * (string * (Build.ctx -> unit))) list;
  injectors : (string * (Prng.t -> Program.t -> Program.t option)) list;
  add_unattended : Build.ctx -> unit;
}

(* Provider-side attribute defaults, derived from the schemas. *)
let schema_default t ~rtype ~attr =
  match t.find_schema rtype with
  | None -> None
  | Some schema -> (
      match Schema.find_attr schema (Zodiac_iac.Path.of_string attr) with
      | Some { Schema.default = Some d; _ } -> Some d
      | Some _ | None -> None)

module Smap = Map.Make (String)

(* Resolved defaults: provider name -> type -> attribute -> default.
   Each pair is resolved on its first lookup and published in a new
   immutable map, so any domain may read it and nothing is built before
   first use. Like [fingerprint], this tells providers apart by name. *)
let resolved : Value.t option Smap.t Smap.t Smap.t Atomic.t = Atomic.make Smap.empty

let find_or_empty k m = Option.value ~default:Smap.empty (Smap.find_opt k m)

let defaults t ~rtype ~attr =
  match Smap.find_opt attr (find_or_empty rtype (find_or_empty t.name (Atomic.get resolved))) with
  | Some d -> d
  | None ->
      let d = schema_default t ~rtype ~attr in
      let rec publish () =
        let all = Atomic.get resolved in
        let types = find_or_empty t.name all in
        let attrs = Smap.add attr d (find_or_empty rtype types) in
        if not (Atomic.compare_and_set resolved all (Smap.add t.name (Smap.add rtype attrs types) all))
        then publish ()
      in
      publish ();
      d

let scenario_names t = List.map (fun (_, (name, _)) -> name) t.scenarios

let fingerprint t =
  Zodiac_util.Codec.fingerprint [ "provider"; t.name; t.tf_prefix ]
