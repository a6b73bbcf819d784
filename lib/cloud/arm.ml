module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Graph = Zodiac_iac.Graph
module Schema = Zodiac_iac.Schema
module Eval = Zodiac_spec.Eval
module Check = Zodiac_spec.Check
module Provider = Zodiac_provider.Provider
module Cidr = Zodiac_util.Cidr

type failure = {
  resource : Resource.id;
  phase : Provider.phase;
  rule_id : string;
  message : string;
  culprits : Resource.id list;
}

type outcome = {
  deployed : Resource.id list;
  failure : failure option;
  halted : Resource.id list;
  post_sync_issues : failure list;
}

let defaults provider = Defaults.lookup provider

let resource_name r =
  match Resource.attr r "name" with Some (Value.Str s) -> Some s | _ -> None

let name_conflict provider r deployed_resources =
  match resource_name r with
  | None -> None
  | Some name ->
      let scope_attr = provider.Provider.name_scope_attr r.Resource.rtype in
      let scope_of res =
        match scope_attr with
        | None -> Value.Null
        | Some attr -> Resource.get res attr
      in
      List.find_opt
        (fun other ->
          String.equal other.Resource.rtype r.Resource.rtype
          && resource_name other = Some name
          && Value.equal (scope_of other) (scope_of r))
        deployed_resources

(* ------- schema conformance (plugin-phase engine checks) ----------- *)

let rec check_required_attrs prefix (attrs : Schema.attr list) (value_of : string -> Value.t) errors =
  List.fold_left
    (fun errors (a : Schema.attr) ->
      let path = if prefix = "" then a.Schema.aname else prefix ^ "." ^ a.Schema.aname in
      let v = value_of path in
      match a.Schema.req with
      | Schema.Required when a.Schema.default = None -> (
          match v with
          | Value.Null ->
              if prefix = "" then
                Printf.sprintf "required attribute %s is missing" path :: errors
              else errors (* nested requireds only checked within present blocks *)
          | _ -> descend path a v errors)
      | Schema.Required | Schema.Optional | Schema.Computed -> (
          match v with Value.Null -> errors | _ -> descend path a v errors))
    errors attrs

and descend path (a : Schema.attr) v errors =
  (* When a block attribute is present, check its required children. *)
  match (a.Schema.atype, v) with
  | (Schema.T_block inner | Schema.T_list (Schema.T_block inner)), (Value.Block _ | Value.List _) ->
      let value_of child_path =
        (* child_path includes our prefix; strip to relative lookup *)
        let rel = String.sub child_path (String.length path + 1)
                    (String.length child_path - String.length path - 1) in
        let rec get v segs =
          match (v, segs) with
          | _, [] -> v
          | Value.Block fields, seg :: rest -> (
              match List.assoc_opt seg fields with
              | Some inner -> get inner rest
              | None -> Value.Null)
          | Value.List (x :: _), segs -> get x segs
          | _, _ -> Value.Null
        in
        get v (String.split_on_char '.' rel)
      in
      let missing = check_required_attrs path inner value_of [] in
      (* Required children inside present blocks do count. *)
      List.fold_left
        (fun errors (child : Schema.attr) ->
          let cpath = path ^ "." ^ child.Schema.aname in
          if child.Schema.req = Schema.Required && child.Schema.default = None then
            match value_of cpath with
            | Value.Null ->
                Printf.sprintf "required attribute %s is missing" cpath :: errors
            | _ -> errors
          else errors)
        (missing @ errors) inner
  | _ -> errors

let leaf_value_errors provider schema r =
  List.fold_left
    (fun errors (path, (a : Schema.attr)) ->
      let values = Resource.get_all r path in
      List.fold_left
        (fun errors v ->
          match (a.Schema.format, v) with
          | Schema.Enum allowed, Value.Str s when not (List.mem s allowed) ->
              Printf.sprintf "invalid value %S for %s" s path :: errors
          | Schema.Region, Value.Str s when not (provider.Provider.is_region s) ->
              Printf.sprintf "unknown region %S" s :: errors
          | Schema.Cidr_format, Value.Str s when Cidr.of_string s = None ->
              Printf.sprintf "malformed CIDR %S in %s" s path :: errors
          | Schema.Cidr_format, Value.List items ->
              List.fold_left
                (fun errors item ->
                  match item with
                  | Value.Str s when Cidr.of_string s = None ->
                      Printf.sprintf "malformed CIDR %S in %s" s path :: errors
                  | _ -> errors)
                errors items
          | _ -> errors)
        errors values)
    [] (Schema.leaf_paths schema)

let schema_errors provider r =
  match provider.Provider.find_schema r.Resource.rtype with
  | None ->
      (* Resource types outside Zodiac's catalogue ("unattended" types,
         §4.1) are still perfectly valid cloud resources: the real
         cloud knows them even though Zodiac does not. They deploy as
         no-ops here. *)
      []
  | Some schema ->
      let missing =
        check_required_attrs "" schema.Schema.attrs
          (fun path -> Resource.get r path)
          []
      in
      (* Computed attributes must not be user-assigned at top level. *)
      missing @ leaf_value_errors provider schema r

(* ------- rule evaluation helpers ------------------------------------ *)

let rules_by_phase rules phase = List.filter (fun r -> r.Provider.phase = phase) rules

(* Violations attributable to the resource just deployed: those whose
   assignment includes it, or that did not exist before it was added
   (e.g. a NIC intruding on a gateway subnet violates a check binding
   only the gateway and the subnet). *)
let violations_involving ~defaults ~graph ~graph_before rule (id : Resource.id) =
  let types =
    List.map (fun (b : Check.binding) -> b.Check.btype) rule.Provider.check.Check.bindings
  in
  let prog_types = Program.types (Graph.program graph) in
  if not (List.for_all (fun ty -> List.mem ty prog_types) types) then []
  else
    match Eval.violations ~defaults graph rule.Provider.check with
    | [] -> []
    | violations ->
        let direct =
          List.filter
            (fun assignment ->
              List.exists (fun (_, rid) -> Resource.equal_id rid id) assignment)
            violations
        in
        if direct <> [] then direct
        else
          let before = Eval.violations ~defaults graph_before rule.Provider.check in
          List.filter (fun a -> not (List.mem a before)) violations

let first_violation ~defaults ~graph ~graph_before rules_in_phase (id : Resource.id) =
  List.find_map
    (fun rule ->
      match violations_involving ~defaults ~graph ~graph_before rule id with
      | [] -> None
      | assignment :: _ ->
          Some
            {
              resource = id;
              phase = rule.Provider.phase;
              rule_id = rule.Provider.rule_id;
              message = rule.Provider.message;
              culprits = List.map snd assignment;
            })
    rules_in_phase

(* Regional sku availability applies to the sku-bearing compute types. *)
let regional_sku_error provider quota r =
  match provider.Provider.sku_location_attr r.Resource.rtype with
  | None -> None
  | Some attr -> (
      match (Resource.get r attr, Resource.get r "location") with
      | Value.Str sku, Value.Str region ->
          Quota.check_regional_sku quota
            ~restricted:provider.Provider.sku_restricted_regions ~sku ~region
      | _ -> None)

let deploy ~provider ?rules ?(quota = Quota.unlimited) prog =
  let rules =
    match rules with Some r -> r | None -> provider.Provider.ground_truth ()
  in
  let defaults = defaults provider in
  let plugin_rules = rules_by_phase rules Provider.Plugin in
  let presync_rules = rules_by_phase rules Provider.Pre_sync in
  let create_rules = rules_by_phase rules Provider.Create in
  let polling_rules = rules_by_phase rules Provider.Polling in
  let postsync_rules = rules_by_phase rules Provider.Post_sync in
  let full_graph = Graph.build prog in
  let order = Graph.topological_order full_graph in
  let rec step deployed_ids pending =
    match pending with
    | [] ->
        (* Everything created: check for silent state inconsistencies. *)
        let issues =
          List.concat_map
            (fun rule ->
              List.map
                (fun assignment ->
                  let culprits = List.map snd assignment in
                  {
                    resource =
                      (match culprits with c :: _ -> c | [] -> assert false);
                    phase = Provider.Post_sync;
                    rule_id = rule.Provider.rule_id;
                    message = rule.Provider.message;
                    culprits;
                  })
                (Eval.violations ~defaults full_graph rule.Provider.check))
            postsync_rules
        in
        {
          deployed = List.rev deployed_ids;
          failure = None;
          halted = [];
          post_sync_issues = issues;
        }
    | id :: rest -> (
        let halt failure =
          {
            deployed = List.rev deployed_ids;
            failure = Some failure;
            halted = id :: rest;
            post_sync_issues = [];
          }
        in
        match Program.find prog id with
        | None -> step deployed_ids rest
        | Some r -> (
            (* Phase 1: provider plugin validation. *)
            match schema_errors provider r with
            | msg :: _ ->
                halt
                  {
                    resource = id;
                    phase = Provider.Plugin;
                    rule_id = "ENGINE-SCHEMA";
                    message = msg;
                    culprits = [ id ];
                  }
            | [] -> (
                let partial =
                  Program.filter
                    (fun r' ->
                      let rid = Resource.id r' in
                      Resource.equal_id rid id
                      || List.exists (Resource.equal_id rid) deployed_ids)
                    prog
                in
                let graph = Graph.build partial in
                let graph_before = Graph.build (Program.remove partial id) in
                match first_violation ~defaults ~graph ~graph_before plugin_rules id with
                | Some f -> halt f
                | None -> (
                    (* Phase 2: pre-deployment state sync. *)
                    let deployed_resources =
                      List.filter_map (Program.find prog) deployed_ids
                    in
                    match name_conflict provider r deployed_resources with
                    | Some other ->
                        halt
                          {
                            resource = id;
                            phase = Provider.Pre_sync;
                            rule_id = "ENGINE-EXISTS";
                            message =
                              Printf.sprintf "%s already exists"
                                (Resource.id_to_string (Resource.id other));
                            culprits = [ id; Resource.id other ];
                          }
                    | None -> (
                        match
                          first_violation ~defaults ~graph ~graph_before presync_rules id
                        with
                        | Some f -> halt f
                        | None -> (
                            (* Phase 3: creation request. *)
                            let dangling =
                              List.filter
                                (fun (_, (reference : Value.reference)) ->
                                  not
                                    (Program.mem prog
                                       {
                                         Resource.rtype = reference.rtype;
                                         rname = reference.rname;
                                       }))
                                (Resource.references r)
                            in
                            match dangling with
                            | (_, reference) :: _ ->
                                halt
                                  {
                                    resource = id;
                                    phase = Provider.Create;
                                    rule_id = "ENGINE-NOTFOUND";
                                    message =
                                      Printf.sprintf
                                        "referenced resource %s.%s was not found"
                                        reference.Value.rtype reference.Value.rname;
                                    culprits = [ id ];
                                  }
                            | [] -> (
                                (* opt-in subscription quotas and
                                   regional sku availability (§6) *)
                                let deployed_of_type =
                                  List.length
                                    (List.filter
                                       (fun (d : Resource.id) ->
                                         String.equal d.Resource.rtype id.Resource.rtype)
                                       deployed_ids)
                                in
                                let quota_error =
                                  match
                                    Quota.check_type_quota quota
                                      ~rtype:id.Resource.rtype ~deployed_of_type
                                  with
                                  | Some m -> Some m
                                  | None ->
                                      Quota.check_total_quota quota
                                        ~deployed_total:(List.length deployed_ids)
                                in
                                match quota_error with
                                | Some message ->
                                    halt
                                      {
                                        resource = id;
                                        phase = Provider.Create;
                                        rule_id = "ENGINE-QUOTA";
                                        message;
                                        culprits = [ id ];
                                      }
                                | None -> (
                                match regional_sku_error provider quota r with
                                | Some message ->
                                    halt
                                      {
                                        resource = id;
                                        phase = Provider.Create;
                                        rule_id = "ENGINE-REGION-SKU";
                                        message;
                                        culprits = [ id ];
                                      }
                                | None -> (
                                match
                                  first_violation ~defaults ~graph ~graph_before create_rules id
                                with
                                | Some f -> halt f
                                | None -> (
                                    (* Phase 4: async polling. *)
                                    match
                                      first_violation ~defaults ~graph ~graph_before
                                        polling_rules id
                                    with
                                    | Some f -> halt f
                                    | None -> step (id :: deployed_ids) rest))))))))))
  in
  step [] order

let success outcome = outcome.failure = None && outcome.post_sync_issues = []

let first_error outcome =
  match outcome.failure with
  | Some f -> Some f
  | None -> ( match outcome.post_sync_issues with f :: _ -> Some f | [] -> None)

type radius = { halted_types : string list; rollback_types : string list }

let distinct_types ids =
  List.fold_left
    (fun acc (id : Resource.id) ->
      if List.mem id.Resource.rtype acc then acc else acc @ [ id.Resource.rtype ])
    [] ids

let blast_radius prog outcome =
  match outcome.failure with
  | None -> { halted_types = []; rollback_types = [] }
  | Some failure ->
      let graph = Graph.build prog in
      let deployed id = List.exists (Resource.equal_id id) outcome.deployed in
      (* A fix may require recreating a culprit; everything deployed that
         transitively references a culprit must then be recreated too. *)
      let rollback =
        List.concat_map
          (fun culprit ->
            culprit :: List.filter deployed (Graph.reaching graph culprit))
          failure.culprits
      in
      {
        halted_types = distinct_types outcome.halted;
        rollback_types = distinct_types rollback;
      }
