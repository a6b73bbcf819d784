(* Tests for the check specification language: parsing, printing,
   evaluation semantics. *)

module Check = Zodiac_spec.Check
module Parser = Zodiac_spec.Spec_parser
module Printer = Zodiac_spec.Spec_printer
(* The cases state checks as [Check.t]; these compile at each call. *)
module Eval = struct
  include Zodiac_spec.Eval

  let stats ?defaults g c = stats ?defaults g (compile c)
  let holds ?defaults g c = holds ?defaults g (compile c)
  let violations ?defaults g c = violations ?defaults g (compile c)
  let first_witness ?defaults g c = first_witness ?defaults g (compile c)
  let first_violation ?defaults g c = first_violation ?defaults g (compile c)
end
module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Graph = Zodiac_iac.Graph

let parse = Parser.parse_exn

let graph_of resources = Graph.build (Program.of_resources resources)

(* ---------------- parser / printer ---------------------------------- *)

let test_parse_print_roundtrip () =
  List.iter
    (fun src ->
      let c = parse src in
      let printed = Printer.to_string c in
      let c2 = parse printed in
      Alcotest.(check bool) src true (Check.equal c c2))
    [
      "let r:SA in r.tier == 'Premium' => r.replica != 'GZRS'";
      "let r:VM in r.priority == 'Spot' => r.evict_policy != null";
      "let r1:VM, r2:NIC in conn(r1.nic_ids -> r2.id) => r1.location == r2.location";
      "let r1:NIC, r2:VPC in path(r1 -> r2) => r1.location == r2.location";
      "let r1:SUBNET, r2:SUBNET, r3:VPC in coconn(r1.vpc_name -> r3.name, r2.vpc_name -> r3.name) => !overlap(r1.cidr, r2.cidr)";
      "let t:TUNNEL, v1:VPC, v2:VPC in copath(t -> v1, t -> v2) => !overlap(v1.address_space, v2.address_space)";
      "let r1:GW, r2:SUBNET in conn(r1.ip_config.subnet_id -> r2.id) => outdegree(r2, !GW) == 0";
      "let r:VM in r.sku == 'Standard_F2s_v2' => indegree(r, NIC) <= 2";
      "let r:SG in r.rule[i].dir == r.rule[j].dir => r.rule[i].priority != r.rule[j].priority";
      "let r:KV in r.name != null => r.soft_delete_retention_days >= 7";
      "let r:COSMOS in r.automatic_failover_enabled == true => !length(r.geo_location, 1)";
      "let t:TUNNEL, l:LNG, v:VPC in conn(t.lng_id -> l.id) && path(t -> v) => !overlap(l.address_space, v.address_space)";
      "let r2:VPC, r1:SUBNET in conn(r1.vpc_name -> r2.name) => contain(r2.address_space, r1.cidr)";
    ]

let test_parse_errors () =
  List.iter
    (fun src ->
      match Parser.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected error for %S" src)
    [
      "";
      "r.x == 1";
      "let r:VM in r.x";
      "let r:VM in r.x == 1 => ";
      "let r in r.x == 1 => r.y == 2";
      "let r:VM in conn(r.x) => r.y == 1";
    ];
  (* one index grammar: a bracket holds one lowercase letter right after
     a field, and the error names the endpoint *)
  List.iter
    (fun ep ->
      let src = Printf.sprintf "let r:SG in r.name == r.name => %s >= 60" ep in
      match Parser.parse src with
      | Error e ->
          let prefix = "endpoint " ^ ep in
          Alcotest.(check string) src prefix (String.sub e 0 (min (String.length e) (String.length prefix)))
      | Ok _ -> Alcotest.failf "expected error for %S" src)
    [ "r.rule[ab].priority"; "r.rule[0].priority"; "r.rule[i"; "r.rule[].priority"; "r.rule[I].priority" ]

let test_stable_ids () =
  let c1 = parse "let r:SA in r.tier == 'Premium' => r.replica != 'GZRS'" in
  let c2 = parse "let r:SA in r.tier == 'Premium' => r.replica != 'GZRS'" in
  Alcotest.(check string) "same id" c1.Check.cid c2.Check.cid;
  let c3 = parse "let r:SA in r.tier == 'Premium' => r.replica != 'LRS'" in
  Alcotest.(check bool) "different id" true (c1.Check.cid <> c3.Check.cid)

let test_categories () =
  let cat src = Check.category (parse src) in
  Alcotest.(check bool) "intra" true
    (cat "let r:SA in r.tier == 'Premium' => r.replica != 'GZRS'" = Check.Intra);
  Alcotest.(check bool) "inter" true
    (cat "let r1:VM, r2:NIC in conn(r1.nic_ids -> r2.id) => r1.location == r2.location"
    = Check.Inter_no_agg);
  Alcotest.(check bool) "agg" true
    (cat "let r1:GW, r2:SUBNET in conn(r1.ip_config.subnet_id -> r2.id) => outdegree(r2, !GW) == 0"
    = Check.Inter_agg)

let test_index_vars () =
  let c = parse "let r:SG in r.rule[i].dir == r.rule[j].dir => r.rule[i].priority != r.rule[j].priority" in
  Alcotest.(check (list string)) "two ivars" [ "i"; "j" ] (Check.index_vars c);
  Alcotest.(check string) "strip" "rule.priority" (Check.strip_indices "rule[i].priority")

(* ---------------- evaluation ---------------------------------------- *)

let sa tier replica =
  Resource.make "SA" "x" [ ("tier", Value.Str tier); ("replica", Value.Str replica) ]

let premium_check = parse "let r:SA in r.tier == 'Premium' => r.replica != 'GZRS'"

let test_eval_intra () =
  Alcotest.(check bool) "conforming holds" true
    (Eval.holds (graph_of [ sa "Premium" "LRS" ]) premium_check);
  Alcotest.(check bool) "violating fails" false
    (Eval.holds (graph_of [ sa "Premium" "GZRS" ]) premium_check);
  Alcotest.(check bool) "vacuous holds" true
    (Eval.holds (graph_of [ sa "Standard" "GZRS" ]) premium_check);
  Alcotest.(check bool) "empty program holds" true
    (Eval.holds (graph_of []) premium_check)

let test_eval_stats () =
  let g = graph_of [ sa "Premium" "GZRS"; sa "Premium" "LRS" ] in
  (* note: both resources named "x" would collide; rename one *)
  ignore g;
  let g =
    graph_of
      [
        Resource.make "SA" "a" [ ("tier", Value.Str "Premium"); ("replica", Value.Str "GZRS") ];
        Resource.make "SA" "b" [ ("tier", Value.Str "Premium"); ("replica", Value.Str "LRS") ];
        Resource.make "SA" "c" [ ("tier", Value.Str "Standard"); ("replica", Value.Str "GZRS") ];
      ]
  in
  let s = Eval.stats g premium_check in
  Alcotest.(check int) "instances" 3 s.Eval.instances;
  Alcotest.(check int) "occurrences" 2 s.Eval.cond_true;
  Alcotest.(check int) "satisfied" 1 s.Eval.both_true

let test_eval_defaults () =
  (* active_active defaults to false; with defaults the check holds *)
  let gw = Resource.make "GW" "g" [ ("sku", Value.Str "Basic") ] in
  let check = parse "let g:GW in g.sku == 'Basic' => g.active_active == false" in
  let defaults ~rtype ~attr =
    if rtype = "GW" && attr = "active_active" then Some (Value.Bool false) else None
  in
  Alcotest.(check bool) "without defaults fails" false
    (Eval.holds (graph_of [ gw ]) check);
  Alcotest.(check bool) "with defaults holds" true
    (Eval.holds ~defaults (graph_of [ gw ]) check);
  (* a missing indexed value falls back to the default of the stripped
     path *)
  let sg =
    Resource.make "SG" "s"
      [ ("rule", Value.List [ Value.Block [ ("name", Value.Str "r0") ] ]) ]
  in
  let check = parse "let r:SG in r.rule[i].name != null => r.rule[i].priority == 100" in
  let defaults ~rtype ~attr =
    if rtype = "SG" && attr = "rule.priority" then Some (Value.Int 100) else None
  in
  Alcotest.(check bool) "indexed without defaults fails" false
    (Eval.holds (graph_of [ sg ]) check);
  Alcotest.(check bool) "indexed with defaults holds" true
    (Eval.holds ~defaults (graph_of [ sg ]) check)

let vpc name = Resource.make "VPC" name [ ("name", Value.Str name); ("location", Value.Str "eastus") ]

let subnet name vpc_name cidr =
  Resource.make "SUBNET" name
    [
      ("name", Value.Str name);
      ("vpc_name", Value.reference "VPC" vpc_name "name");
      ("cidr", Value.Str cidr);
    ]

let overlap_check =
  parse
    "let r1:SUBNET, r2:SUBNET, r3:VPC in coconn(r1.vpc_name -> r3.name, r2.vpc_name -> r3.name) => !overlap(r1.cidr, r2.cidr)"

let test_eval_coconn_overlap () =
  let good = [ vpc "v"; subnet "s1" "v" "10.0.1.0/24"; subnet "s2" "v" "10.0.2.0/24" ] in
  let bad = [ vpc "v"; subnet "s1" "v" "10.0.1.0/24"; subnet "s2" "v" "10.0.1.0/25" ] in
  Alcotest.(check bool) "disjoint holds" true (Eval.holds (graph_of good) overlap_check);
  Alcotest.(check bool) "overlap fails" false (Eval.holds (graph_of bad) overlap_check);
  (* subnets in different VPCs may overlap *)
  let cross =
    [ vpc "v1"; vpc "v2"; subnet "s1" "v1" "10.0.1.0/24"; subnet "s2" "v2" "10.0.1.0/24" ]
  in
  Alcotest.(check bool) "cross-vpc ok" true (Eval.holds (graph_of cross) overlap_check)

let test_eval_path () =
  let nic =
    Resource.make "NIC" "n"
      [
        ("location", Value.Str "westus");
        ("ip_config", Value.Block [ ("subnet_id", Value.reference "SUBNET" "s1" "id") ]);
      ]
  in
  let check = parse "let r1:NIC, r2:VPC in path(r1 -> r2) => r1.location == r2.location" in
  let g = graph_of [ vpc "v"; subnet "s1" "v" "10.0.1.0/24"; nic ] in
  Alcotest.(check bool) "violated over 2-hop path" false (Eval.holds g check);
  Alcotest.(check int) "one violation" 1 (List.length (Eval.violations g check))

let test_eval_degrees () =
  let nic name =
    Resource.make "NIC" name
      [ ("ip_config", Value.Block [ ("subnet_id", Value.reference "SUBNET" "s1" "id") ]) ]
  in
  let vm nics =
    Resource.make "VM" "vm"
      [
        ("sku", Value.Str "Standard_F2s_v2");
        ("nic_ids", Value.List (List.map (fun n -> Value.reference "NIC" n "id") nics));
      ]
  in
  let check = parse "let r:VM in r.sku == 'Standard_F2s_v2' => indegree(r, NIC) <= 2" in
  let g2 = graph_of [ vpc "v"; subnet "s1" "v" "10.0.0.0/24"; nic "a"; nic "b"; vm [ "a"; "b" ] ] in
  Alcotest.(check bool) "2 nics ok" true (Eval.holds g2 check);
  let g3 =
    graph_of
      [ vpc "v"; subnet "s1" "v" "10.0.0.0/24"; nic "a"; nic "b"; nic "c"; vm [ "a"; "b"; "c" ] ]
  in
  Alcotest.(check bool) "3 nics violate" false (Eval.holds g3 check)

let test_eval_outdeg_exclusive () =
  let gw =
    Resource.make "GW" "g"
      [ ("ip_config", Value.Block [ ("subnet_id", Value.reference "SUBNET" "s1" "id") ]) ]
  in
  let nic =
    Resource.make "NIC" "n"
      [ ("ip_config", Value.Block [ ("subnet_id", Value.reference "SUBNET" "s1" "id") ]) ]
  in
  let check =
    parse "let r1:GW, r2:SUBNET in conn(r1.ip_config.subnet_id -> r2.id) => outdegree(r2, !GW) == 0"
  in
  let base = [ vpc "v"; subnet "s1" "v" "10.0.0.0/24"; gw ] in
  Alcotest.(check bool) "exclusive ok" true (Eval.holds (graph_of base) check);
  Alcotest.(check bool) "intruder violates" false
    (Eval.holds (graph_of (base @ [ nic ])) check)

let test_eval_indexed () =
  let sg rules =
    Resource.make "SG" "sg"
      [
        ( "rule",
          Value.List
            (List.map
               (fun (dir, pri) ->
                 Value.Block
                   [ ("dir", Value.Str dir); ("priority", Value.Int pri) ])
               rules) );
      ]
  in
  let check =
    parse "let r:SG in r.rule[i].dir == r.rule[j].dir => r.rule[i].priority != r.rule[j].priority"
  in
  Alcotest.(check bool) "distinct priorities hold" true
    (Eval.holds (graph_of [ sg [ ("Inbound", 100); ("Inbound", 200) ] ]) check);
  Alcotest.(check bool) "duplicate priorities fail" false
    (Eval.holds (graph_of [ sg [ ("Inbound", 100); ("Inbound", 100) ] ]) check);
  Alcotest.(check bool) "different directions may share" true
    (Eval.holds (graph_of [ sg [ ("Inbound", 100); ("Outbound", 100) ] ]) check);
  Alcotest.(check bool) "single rule vacuous" true
    (Eval.holds (graph_of [ sg [ ("Inbound", 100) ] ]) check);
  (* unindexed traversal into a list reads its first element, in Eval
     as in Resource.get *)
  let first = parse "let r:SG in r.rule.dir == 'Inbound' => r.rule.priority == 100" in
  let rules = [ ("Inbound", 100); ("Inbound", 200) ] in
  Alcotest.(check bool) "Resource.get reads the head" true
    (Resource.get (sg rules) "rule.priority" = Value.Int 100);
  Alcotest.(check bool) "Eval reads the head" true (Eval.holds (graph_of [ sg rules ]) first);
  Alcotest.(check bool) "Eval reads only the head" false
    (Eval.holds (graph_of [ sg (List.rev rules) ]) first)

let test_eval_contain () =
  let v =
    Resource.make "VPC" "v"
      [ ("name", Value.Str "v"); ("address_space", Value.List [ Value.Str "10.0.0.0/16" ]) ]
  in
  let check =
    parse "let r1:SUBNET, r2:VPC in conn(r1.vpc_name -> r2.name) => contain(r2.address_space, r1.cidr)"
  in
  Alcotest.(check bool) "inside holds" true
    (Eval.holds (graph_of [ v; subnet "s" "v" "10.0.3.0/24" ]) check);
  Alcotest.(check bool) "outside fails" false
    (Eval.holds (graph_of [ v; subnet "s" "v" "192.168.0.0/24" ]) check)

let test_eval_length () =
  let cosmos n =
    Resource.make "COSMOS" "c"
      [
        ("automatic_failover_enabled", Value.Bool true);
        ( "geo_location",
          Value.List (List.init n (fun i -> Value.Block [ ("failover_priority", Value.Int i) ]))
        );
      ]
  in
  let check =
    parse "let r:COSMOS in r.automatic_failover_enabled == true => !length(r.geo_location, 1)"
  in
  Alcotest.(check bool) "two locations ok" true (Eval.holds (graph_of [ cosmos 2 ]) check);
  Alcotest.(check bool) "one location fails" false (Eval.holds (graph_of [ cosmos 1 ]) check)

let test_eval_first_witness_agrees () =
  let g =
    graph_of
      [
        Resource.make "SA" "a" [ ("tier", Value.Str "Premium"); ("replica", Value.Str "LRS") ];
      ]
  in
  Alcotest.(check bool) "first witness found" true
    (Eval.first_witness g premium_check <> None);
  Alcotest.(check bool) "no violation" true (Eval.first_violation g premium_check = None)

let test_eval_injective_bindings () =
  (* two same-type bindings never alias one resource *)
  let check = parse "let r1:SA, r2:SA in r1.tier == r2.tier => r1.name != r2.name" in
  let g =
    graph_of
      [ Resource.make "SA" "only" [ ("tier", Value.Str "Standard"); ("name", Value.Str "n") ] ]
  in
  (* with a single SA there is no (r1, r2) instance at all *)
  Alcotest.(check int) "no instances" 0 (Eval.stats g check).Eval.instances

(* ---------------- diagnosis ------------------------------------------ *)

module Diagnose = Zodiac_spec.Diagnose

let has_sub ~needle haystack =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_diagnose_cmp () =
  let g = graph_of [ sa "Premium" "GZRS" ] in
  match Diagnose.all g (Eval.compile premium_check) with
  | [ d ] ->
      let text = Diagnose.to_string d in
      Alcotest.(check bool) "names the resource" true (has_sub ~needle:"SA.x" text);
      Alcotest.(check bool) "shows the actual value" true
        (has_sub ~needle:"GZRS" d.Diagnose.explanation)
  | other -> Alcotest.failf "expected one diagnosis, got %d" (List.length other)

let test_diagnose_locations () =
  let nic =
    Resource.make "NIC" "n"
      [ ("location", Value.Str "westus");
        ("ip_config", Value.Block [ ("subnet_id", Value.reference "SUBNET" "s1" "id") ]) ]
  in
  let check = parse "let r1:NIC, r2:VPC in path(r1 -> r2) => r1.location == r2.location" in
  let g = graph_of [ vpc "v"; subnet "s1" "v" "10.0.1.0/24"; nic ] in
  match Diagnose.all g (Eval.compile check) with
  | [ d ] ->
      Alcotest.(check bool) "both values shown" true
        (has_sub ~needle:"westus" d.Diagnose.explanation
        && has_sub ~needle:"eastus" d.Diagnose.explanation);
      Alcotest.(check bool) "expectation stated" true
        (has_sub ~needle:"equal" d.Diagnose.explanation)
  | other -> Alcotest.failf "expected one diagnosis, got %d" (List.length other)

let test_diagnose_indexed () =
  let sg =
    Resource.make "SG" "sg"
      [
        ( "rule",
          Value.List
            [
              Value.Block [ ("dir", Value.Str "Inbound"); ("priority", Value.Int 100) ];
              Value.Block [ ("dir", Value.Str "Inbound"); ("priority", Value.Int 100) ];
            ] );
      ]
  in
  let check =
    parse "let r:SG in r.rule[i].dir == r.rule[j].dir => r.rule[i].priority != r.rule[j].priority"
  in
  match Diagnose.all (graph_of [ sg ]) (Eval.compile check) with
  | d :: _ ->
      Alcotest.(check bool) "shows the clashing priority" true
        (has_sub ~needle:"100" d.Diagnose.explanation)
  | [] -> Alcotest.fail "expected a diagnosis"

let test_diagnose_overlap () =
  let g =
    graph_of [ vpc "v"; subnet "s1" "v" "10.0.1.0/24"; subnet "s2" "v" "10.0.1.0/25" ]
  in
  match Diagnose.all g (Eval.compile overlap_check) with
  | d :: _ ->
      Alcotest.(check bool) "mentions the ranges" true
        (has_sub ~needle:"10.0.1.0" d.Diagnose.explanation)
  | [] -> Alcotest.fail "expected a diagnosis"

(* ---------------- compiled form against the reference --------------- *)

(* The tree interpreter the compiled form replaced, verbatim: every term
   re-parses its path, every variable is a [Program.find], and [holds]
   folds every instance. The reference for the property below. *)
module Reference = struct
  [@@@warning "-34"] (* [defaults], kept verbatim *)

  module Path = Zodiac_iac.Path
  module Cidr = Zodiac_util.Cidr

  type assignment = (string * Resource.id) list

  type defaults = rtype:string -> attr:string -> Value.t option

  type stats = {
    instances : int;
    cond_true : int;
    stmt_true : int;
    both_true : int;
  }

  let no_defaults ~rtype:_ ~attr:_ = None

  (* --- term and expression evaluation -------------------------------- *)

  let lookup_resource graph env var =
    match List.assoc_opt var env with
    | None -> None
    | Some id -> Program.find (Graph.program graph) id

  let term_value ?(defaults = no_defaults) graph env ienv term =
    match term with
    | Check.Const v -> v
    | Check.Attr { var; attr } -> (
        match lookup_resource graph env var with
        | None -> Value.Null
        | Some r -> (
            let path = Path.of_string attr in
            match Path.get ~env:ienv path (Value.Block r.Resource.attrs) with
            | Value.Null ->
                let stripped = Path.to_string (Path.strip path) in
                Option.value ~default:Value.Null (defaults ~rtype:r.Resource.rtype ~attr:stripped)
            | v -> v))
    | Check.Indeg (var, ty) -> (
        match List.assoc_opt var env with
        | None -> Value.Null
        | Some id -> Value.Int (Graph.indegree graph id ty))
    | Check.Outdeg (var, ty) -> (
        match List.assoc_opt var env with
        | None -> Value.Null
        | Some id -> Value.Int (Graph.outdegree graph id ty))

  let cidrs_of_value v =
    match v with
    | Value.Str s -> ( match Cidr.of_string s with Some c -> [ c ] | None -> [])
    | Value.List items ->
        List.filter_map
          (fun item ->
            match item with Value.Str s -> Cidr.of_string s | _ -> None)
          items
    | _ -> []

  let value_int = function Value.Int i -> Some i | _ -> None

  let compare_values op v1 v2 =
    match op with
    | Check.Eq -> Value.equal v1 v2
    | Check.Ne -> not (Value.equal v1 v2)
    | Check.Le | Check.Ge | Check.Lt | Check.Gt -> (
        match (value_int v1, value_int v2) with
        | Some a, Some b -> (
            match op with
            | Check.Le -> a <= b
            | Check.Ge -> a >= b
            | Check.Lt -> a < b
            | Check.Gt -> a > b
            | Check.Eq | Check.Ne -> assert false)
        | _ -> false)

  let eval_func f v1 v2 =
    match f with
    | Check.Overlap ->
        let cs1 = cidrs_of_value v1 and cs2 = cidrs_of_value v2 in
        List.exists (fun a -> List.exists (fun b -> Cidr.overlap a b) cs2) cs1
    | Check.Contain ->
        let cs1 = cidrs_of_value v1 and cs2 = cidrs_of_value v2 in
        cs1 <> [] && cs2 <> []
        && List.for_all
             (fun b -> List.exists (fun a -> Cidr.contains a b) cs1)
             cs2
    | Check.Length -> (
        let len =
          match v1 with
          | Value.List items -> Some (List.length items)
          | Value.Str s -> Some (String.length s)
          | _ -> None
        in
        match (len, value_int v2) with Some a, Some b -> a = b | _ -> false)

  let endpoint_conn graph env (a : Check.endpoint) (b : Check.endpoint) =
    match (List.assoc_opt a.var env, List.assoc_opt b.var env) with
    | Some src, Some dst ->
        Graph.conn graph ~src ~src_attr:(Check.strip_indices a.attr) ~dst
          ~dst_attr:(Check.strip_indices b.attr)
    | _ -> false

  let node_path graph env a b =
    match (List.assoc_opt a env, List.assoc_opt b env) with
    | Some x, Some y -> Graph.path graph x y
    | _ -> false

  let rec eval_expr ?(defaults = no_defaults) graph env ienv expr =
    match expr with
    | Check.Conn (a, b) -> endpoint_conn graph env a b
    | Check.Path (a, b) -> node_path graph env a b
    | Check.Coconn ((a, b), (c, d)) ->
        endpoint_conn graph env a b && endpoint_conn graph env c d
    | Check.Copath ((a, b), (c, d)) -> node_path graph env a b && node_path graph env c d
    | Check.Cmp (op, t1, t2) ->
        compare_values op
          (term_value ~defaults graph env ienv t1)
          (term_value ~defaults graph env ienv t2)
    | Check.Func (f, t1, t2) ->
        eval_func f
          (term_value ~defaults graph env ienv t1)
          (term_value ~defaults graph env ienv t2)
    | Check.Not e -> not (eval_expr ~defaults graph env ienv e)
    | Check.And es -> List.for_all (eval_expr ~defaults graph env ienv) es

  (* --- instance enumeration ------------------------------------------ *)

  (* All injective assignments of bindings to resources of matching type. *)
  let assignments graph (bindings : Check.binding list) =
    let prog = Graph.program graph in
    let rec extend env = function
      | [] -> [ List.rev env ]
      | (b : Check.binding) :: rest ->
          let candidates = Program.by_type prog b.btype in
          List.concat_map
            (fun r ->
              let id = Resource.id r in
              if List.exists (fun (_, id') -> Resource.equal_id id id') env then []
              else extend ((b.var, id) :: env) rest)
            candidates
    in
    extend [] bindings

  (* Index environments for one assignment: the product of the domains of
     each index variable, where a variable's domain is the largest
     collection it indexes across all endpoints mentioning it. *)
  let index_envs graph check =
    match Check.index_vars check with
    | [] -> fun _env -> [ [] ]
    | ivars ->
        (* parsed once per check, not once per assignment *)
        let endpoints =
          List.map
            (fun (e : Check.endpoint) -> (e.var, Path.of_string e.attr))
            (Check.attrs_of_expr check.Check.cond @ Check.attrs_of_expr check.Check.stmt)
        in
        fun env ->
          let domain ienv ivar =
            List.fold_left
              (fun acc (var, path) ->
                match lookup_resource graph env var with
                | None -> acc
                | Some r -> (
                    match Path.index_range ~env:ienv path ivar (Value.Block r.Resource.attrs) with
                    | Some n -> max acc n
                    | None -> acc))
              0 endpoints
          in
          (* Distinct index variables range over pairwise-distinct positions:
             [rule[i]] vs [rule[j]] never aliases the same element. *)
          let rec expand ienvs = function
            | [] -> ienvs
            | ivar :: rest ->
                let ienvs =
                  List.concat_map
                    (fun ienv ->
                      let n = domain ienv ivar in
                      if n = 0 then []
                      else
                        List.filter_map
                          (fun i ->
                            if List.exists (fun (_, j) -> j = i) ienv then None
                            else Some (ienv @ [ (ivar, i) ]))
                          (List.init n Fun.id))
                    ienvs
                in
                expand ienvs rest
          in
          expand [ [] ] ivars

  let fold_instances ?(defaults = no_defaults) graph check f init =
    match assignments graph check.Check.bindings with
    | [] -> init
    | envs ->
        let index_envs = index_envs graph check in
        List.fold_left
          (fun acc env ->
            List.fold_left
              (fun acc ienv ->
                let cond = eval_expr ~defaults graph env ienv check.Check.cond in
                let stmt = eval_expr ~defaults graph env ienv check.Check.stmt in
                f acc env cond stmt)
              acc (index_envs env))
          init envs

  let stats ?(defaults = no_defaults) graph check =
    fold_instances ~defaults graph check
      (fun acc _env cond stmt ->
        {
          instances = acc.instances + 1;
          cond_true = (acc.cond_true + if cond then 1 else 0);
          stmt_true = (acc.stmt_true + if stmt then 1 else 0);
          both_true = (acc.both_true + if cond && stmt then 1 else 0);
        })
      { instances = 0; cond_true = 0; stmt_true = 0; both_true = 0 }

  let holds ?(defaults = no_defaults) graph check =
    fold_instances ~defaults graph check
      (fun acc _env cond stmt -> acc && ((not cond) || stmt))
      true

  let occurrences ?(defaults = no_defaults) graph check =
    (stats ~defaults graph check).cond_true

  let dedup_assignments envs =
    List.fold_left (fun acc env -> if List.mem env acc then acc else env :: acc) [] envs
    |> List.rev

  let violations ?(defaults = no_defaults) graph check =
    fold_instances ~defaults graph check
      (fun acc env cond stmt -> if cond && not stmt then env :: acc else acc)
      []
    |> dedup_assignments

  let witnesses ?(defaults = no_defaults) graph check =
    fold_instances ~defaults graph check
      (fun acc env cond stmt -> if cond && stmt then env :: acc else acc)
      []
    |> dedup_assignments

  exception Found of assignment

  let first_matching ~defaults graph check pred =
    match
      fold_instances ~defaults graph check
        (fun () env cond stmt -> if pred cond stmt then raise (Found env))
        ()
    with
    | () -> None
    | exception Found env -> Some env

  let first_witness ?(defaults = no_defaults) graph check =
    first_matching ~defaults graph check (fun cond stmt -> cond && stmt)

  let first_violation ?(defaults = no_defaults) graph check =
    first_matching ~defaults graph check (fun cond stmt -> cond && not stmt)

  let violating_index_env ?(defaults = no_defaults) graph check env =
    List.find_opt
      (fun ienv ->
        eval_expr ~defaults graph env ienv check.Check.cond
        && not (eval_expr ~defaults graph env ienv check.Check.stmt))
      (index_envs graph check env)
end

let ref_types = [ "A"; "B" ]

let gen_program =
  let open QCheck.Gen in
  let field name g = frequency [ (1, return []); (3, map (fun v -> [ (name, v) ]) g) ] in
  let reference earlier = map (fun (t, n) -> Value.reference t n "id") (oneofl earlier) in
  let attrs earlier =
    let refs, rule_to =
      match earlier with
      | [] -> (return [], return [])
      | _ ->
          ( field "refs" (map (fun l -> Value.List l) (list_size (int_range 1 2) (reference earlier))),
            field "to" (reference earlier) )
    in
    let rule =
      map3
        (fun dir prio rest -> Value.Block ([ ("dir", Value.Str dir); ("prio", Value.Int prio) ] @ rest))
        (oneofl [ "in"; "out" ]) (int_bound 2) rule_to
    in
    let rules = frequency [ (4, map (fun l -> Value.List l) (list_size (int_bound 3) rule)); (1, rule) ] in
    map List.concat
      (flatten_l
         [
           field "x" (map (fun i -> Value.Int i) (int_bound 3));
           field "s" (oneofl [ Value.Str "a"; Value.Str "b" ]);
           field "cidr"
             (map (fun s -> Value.Str s) (oneofl [ "10.0.0.0/16"; "10.0.1.0/24"; "10.1.0.0/24"; "bad" ]));
           field "rule" rules;
           refs;
         ])
  in
  int_range 1 5 >>= fun n ->
  let rec build i earlier acc =
    if i = n then return (Program.of_resources (List.rev acc))
    else
      oneofl ref_types >>= fun rtype ->
      let rname = Printf.sprintf "r%d" i in
      attrs earlier >>= fun attrs ->
      build (i + 1) ((rtype, rname) :: earlier) (Resource.make rtype rname attrs :: acc)
  in
  build 0 [] []

(* Checks over one to three bindings of two types (so two bindings often
   share one), with index variables [i]/[j], degrees, CIDR functions,
   connectivity, attributes only a default supplies, and now and then a
   variable no binding declares. *)
let gen_check =
  let open QCheck.Gen in
  int_range 1 3 >>= fun nb ->
  list_repeat nb (oneofl ref_types) >>= fun types ->
  let vars = List.mapi (fun i _ -> Printf.sprintf "v%d" i) types in
  let bindings = List.map2 (fun var btype -> { Check.var; btype }) vars types in
  let var = frequency [ (12, oneofl vars); (1, return "u") ] in
  let endpoint attrs = map2 (fun var attr -> { Check.var; attr }) var (oneofl attrs) in
  let attr =
    endpoint
      [ "x"; "s"; "cidr"; "rule[i].prio"; "rule[j].prio"; "rule[i].dir"; "rule[j].dir"; "rule.prio";
        "missing"; "rule[i].missing"; "refs" ]
  in
  let spec = map2 (fun neg ty -> if neg then Graph.Not_type ty else Graph.Type ty) bool (oneofl ref_types) in
  let term =
    frequency
      [
        (4, map (fun e -> Check.Attr e) attr);
        ( 3,
          map
            (fun v -> Check.Const v)
            (oneofl
               [ Value.Int 0; Value.Int 1; Value.Int 2; Value.Str "a"; Value.Str "in"; Value.Null;
                 Value.Str "10.0.0.0/16" ]) );
        (1, map2 (fun v s -> Check.Indeg (v, s)) var spec);
        (1, map2 (fun v s -> Check.Outdeg (v, s)) var spec);
      ]
  in
  let conn = pair (endpoint [ "refs"; "rule[i].to"; "x" ]) (endpoint [ "id" ]) in
  let pathv = pair var var in
  let rec expr d =
    frequency
      ([
         (4, map3 (fun op a b -> Check.Cmp (op, a, b)) (oneofl Check.[ Eq; Ne; Le; Ge; Lt; Gt ]) term term);
         (2, map3 (fun f a b -> Check.Func (f, a, b)) (oneofl Check.[ Overlap; Contain; Length ]) term term);
         (1, map (fun (a, b) -> Check.Conn (a, b)) conn);
         (1, map (fun (a, b) -> Check.Path (a, b)) pathv);
         (1, map2 (fun a b -> Check.Coconn (a, b)) conn conn);
         (1, map2 (fun a b -> Check.Copath (a, b)) pathv pathv);
       ]
      @
      if d = 0 then []
      else
        [
          (2, map (fun e -> Check.Not e) (expr (d - 1)));
          (2, map (fun es -> Check.And es) (list_size (int_range 1 3) (expr (d - 1))));
        ])
  in
  map2 (fun cond stmt -> Check.make bindings cond stmt) (expr 2) (expr 2)

let ref_defaults ~rtype ~attr =
  match (rtype, attr) with
  | "A", "missing" -> Some (Value.Int 1)
  | "B", "rule.prio" -> Some (Value.Int 2)
  | _, "rule.missing" -> Some (Value.Str "in")
  | _ -> None

let compiled_matches_reference =
  let module C = Zodiac_spec.Eval in
  let module R = Reference in
  QCheck.Test.make ~name:"compiled = reference interpreter" ~count:2000
    (QCheck.make
       ~print:(fun (prog, check) ->
         Format.asprintf "%s@.%a" (Printer.to_string check) Program.pp prog)
       (QCheck.Gen.pair gen_program gen_check))
    (fun (prog, check) ->
      let g = Graph.build prog and c = C.compile check and defaults = ref_defaults in
      let s = C.stats ~defaults g c and r = R.stats ~defaults g check in
      let violations = C.violations ~defaults g c in
      (s.C.instances, s.C.cond_true, s.C.stmt_true, s.C.both_true)
      = (r.R.instances, r.R.cond_true, r.R.stmt_true, r.R.both_true)
      && C.holds ~defaults g c = R.holds ~defaults g check
      && C.occurrences ~defaults g c = R.occurrences ~defaults g check
      && violations = R.violations ~defaults g check
      && C.witnesses ~defaults g c = R.witnesses ~defaults g check
      && C.first_violation ~defaults g c = R.first_violation ~defaults g check
      && C.first_witness ~defaults g c = R.first_witness ~defaults g check
      && List.for_all
           (fun a ->
             C.violating_index_env ~defaults g c a = R.violating_index_env ~defaults g check a)
           violations)

(* --- slot form: Eval.holds_slots against write + build + holds ------- *)

module Mutation = Zodiac_validation.Mutation
module Path = Zodiac_iac.Path

(* Slots [Mutation.negative] never forms but [Mutation.slot_form] must
   judge all the same: paths through scalar ([x.deep]) or missing
   intermediates, a whole collection, an element, an element out of
   range, the head alias [rule.prio] of [rule\[0\].prio], and reference
   holders. *)
let extra_paths =
  let at i p = Path.bind [ ("i", i) ] (Path.of_string p) in
  [
    Path.of_string "x.deep"; Path.of_string "s.deep"; Path.of_string "missing.deep";
    Path.of_string "rule"; Path.of_string "rule.prio"; Path.of_string "missing";
    Path.of_string "refs"; Path.of_string "x"; at 0 "rule[i].prio"; at 1 "rule[i].dir";
    at 3 "rule[i].prio"; at 0 "rule[i].to"; at 0 "rule[i]"; at 1 "rule[i].deep.er";
  ]

(* Mostly values of the generated attributes' own kinds, so writes move
   verdicts; now and then a null, a reference or a collection. *)
let gen_slot_value =
  let open QCheck.Gen in
  frequency
    [
      (6, map (fun i -> Value.Int i) (int_bound 3));
      (4, oneofl [ Value.Str "a"; Value.Str "b"; Value.Str "in"; Value.Str "out" ]);
      (2, oneofl [ Value.Str "10.0.0.0/16"; Value.Str "10.1.0.0/24"; Value.Str "bad" ]);
      (1, return Value.Null);
      ( 1,
        oneofl
          [
            Value.reference "A" "r0" "id"; Value.List [ Value.reference "B" "r1" "id" ];
            Value.Block [ ("prio", Value.Int 1) ];
            Value.List [ Value.Block [ ("dir", Value.Str "in"); ("prio", Value.Int 0) ] ];
          ] );
    ]

(* [gen_program]'s [rule] is a block or a list; now and then make it a
   scalar, so [rule.prio] and [rule\[i\].prio] step through one. *)
let gen_scalar_rules prog =
  let open QCheck.Gen in
  map
    (fun scalars ->
      Program.of_resources
        (List.map2
           (fun r scalar ->
             match (scalar, Resource.attr r "rule") with
             | Some v, Some _ -> Resource.set r "rule" v
             | _ -> r)
           (Program.resources prog) scalars))
    (list_repeat (Program.size prog)
       (frequency [ (5, return None); (1, oneofl [ Some (Value.Int 1); Some (Value.Str "in") ]) ]))

(* A scope as [Mutation.negative] forms one, and more: every slot of the
   check on a random subset of the program's resources, plus extra
   slots on those resources; each slot with a domain of one to three
   values and the value the solver assigned it. Half the checks drop
   their condition, which a random one seldom meets. *)
let gen_slot_case =
  let open QCheck.Gen in
  triple gen_program gen_check bool >>= fun (prog, check, always) ->
  gen_scalar_rules prog >>= fun prog ->
  let check =
    if always then Check.make check.Check.bindings (Check.And []) check.Check.stmt else check
  in
  let ids = List.map Resource.id (Program.resources prog) in
  list_repeat (List.length ids) (frequency [ (3, return true); (1, return false) ]) >>= fun picks ->
  let chosen = List.filteri (fun i _ -> List.nth picks i) ids in
  list_size (int_bound 3) (pair (oneofl ids) (oneofl extra_paths)) >>= fun extras ->
  let extras =
    List.filter_map
      (fun (rid, path) ->
        if List.exists (Resource.equal_id rid) chosen then Some { Mutation.rid; path } else None)
      extras
  in
  let own =
    List.filter
      (fun (s : Mutation.slot) -> List.exists (Resource.equal_id s.Mutation.rid) chosen)
      (Mutation.slots_of_check prog check)
  in
  let slots = List.sort_uniq compare (own @ extras) in
  flatten_l
    (List.map
       (fun slot ->
         list_size (int_range 1 3) gen_slot_value >>= fun dom ->
         oneofl dom >>= fun v -> return (slot, dom, v))
       slots)
  >>= fun scope -> return (prog, check, scope)

let print_slot_case (prog, check, scope) =
  Format.asprintf "%s@.%a@.%s" (Printer.to_string check) Program.pp prog
    (String.concat "\n"
       (List.map
          (fun ((s : Mutation.slot), dom, v) ->
            Printf.sprintf "%s.%s := %s of [%s]"
              (Resource.id_to_string s.Mutation.rid)
              (Path.to_string s.Mutation.path) (Value.to_string v)
              (String.concat "; " (List.map Value.to_string dom)))
          scope))

(* The check, and a probe per endpoint and assigned value [c]
   ([let v:T in => v.attr != c]) that a wrong read alone can flip. *)
let probes check scope =
  let values = List.sort_uniq compare (List.map (fun (_, _, v) -> v) scope) in
  check
  :: List.concat_map
       (fun (e : Check.endpoint) ->
         match Check.binding_type check e.Check.var with
         | None -> []
         | Some btype ->
             List.map
               (fun c ->
                 Check.make [ { Check.var = e.Check.var; btype } ] (Check.And [])
                   (Check.Cmp (Check.Ne, Check.Attr e, Check.Const c)))
               values)
       (List.sort_uniq compare
          (Check.attrs_of_expr check.Check.cond @ Check.attrs_of_expr check.Check.stmt))

(* Per probe: the verdict on the written program, the slot form's, on
   the base program, and whether [Mutation.slot_form] admits the scope. *)
let slot_verdicts (prog, check, scope) =
  let defaults = ref_defaults in
  let written = List.fold_left (fun p (s, _, v) -> Mutation.write_slot p s v) prog scope in
  let slots =
    List.fold_left
      (fun groups ((s : Mutation.slot), _, v) ->
        match List.partition (fun (rid, _) -> Resource.equal_id rid s.Mutation.rid) groups with
        | [ (rid, paths) ], rest -> rest @ [ (rid, paths @ [ (s.Mutation.path, v) ]) ]
        | _, _ -> groups @ [ (s.Mutation.rid, [ (s.Mutation.path, v) ]) ])
      [] scope
  in
  let domains = List.map (fun (s, dom, _) -> (s, dom)) scope in
  let base_graph = Graph.build prog and written_graph = Graph.build written in
  List.map
    (fun check ->
      let c = Zodiac_spec.Eval.compile check in
      ( Zodiac_spec.Eval.holds ~defaults written_graph c,
        Zodiac_spec.Eval.holds_slots ~defaults base_graph c slots,
        Zodiac_spec.Eval.holds ~defaults base_graph c,
        Mutation.slot_form prog check domains ))
    (probes check scope)

let slot_form_matches_written =
  QCheck.Test.make ~name:"slot form = write + build + holds where admitted" ~count:6000
    (QCheck.make ~print:print_slot_case gen_slot_case)
    (fun case ->
      List.for_all
        (fun (written, in_place, _, admitted) -> (not admitted) || in_place = written)
        (slot_verdicts case))

(* The property above would hold for a gate that admits nothing. On a
   fixed sample the gate must admit most probes, the writes it admits
   must change verdicts, and the probes it rejects must include some
   where the two forms differ. *)
let test_slot_form_coverage () =
  let rand = Random.State.make [| 27 |] in
  let verdicts = List.concat (List.init 1000 (fun _ -> slot_verdicts (gen_slot_case rand))) in
  let count p = List.length (List.filter p verdicts) in
  let total = List.length verdicts in
  let admitted = count (fun (_, _, _, a) -> a) in
  let flipped = count (fun (w, _, b, a) -> a && w <> b) in
  let differ = count (fun (w, i, _, a) -> (not a) && w <> i) in
  Alcotest.(check bool) (Printf.sprintf "admitted %d of %d" admitted total) true (3 * admitted >= total);
  Alcotest.(check bool) (Printf.sprintf "admitted and flipped %d" flipped) true (flipped >= total / 20);
  Alcotest.(check bool) (Printf.sprintf "rejected and differing %d" differ) true (differ >= total / 100)

let () =
  Alcotest.run "spec"
    [
      ( "syntax",
        [
          Alcotest.test_case "parse/print roundtrip" `Quick test_parse_print_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "stable ids" `Quick test_stable_ids;
          Alcotest.test_case "categories" `Quick test_categories;
          Alcotest.test_case "index vars" `Quick test_index_vars;
        ] );
      ( "eval",
        [
          Alcotest.test_case "intra" `Quick test_eval_intra;
          Alcotest.test_case "stats" `Quick test_eval_stats;
          Alcotest.test_case "defaults" `Quick test_eval_defaults;
          Alcotest.test_case "coconn overlap" `Quick test_eval_coconn_overlap;
          Alcotest.test_case "path" `Quick test_eval_path;
          Alcotest.test_case "degree bounds" `Quick test_eval_degrees;
          Alcotest.test_case "exclusive outdegree" `Quick test_eval_outdeg_exclusive;
          Alcotest.test_case "indexed quantification" `Quick test_eval_indexed;
          Alcotest.test_case "containment" `Quick test_eval_contain;
          Alcotest.test_case "length" `Quick test_eval_length;
          Alcotest.test_case "first witness/violation" `Quick test_eval_first_witness_agrees;
          Alcotest.test_case "injective bindings" `Quick test_eval_injective_bindings;
          QCheck_alcotest.to_alcotest compiled_matches_reference;
          QCheck_alcotest.to_alcotest slot_form_matches_written;
          Alcotest.test_case "slot form coverage" `Quick test_slot_form_coverage;
        ] );
      ( "diagnose",
        [
          Alcotest.test_case "comparison" `Quick test_diagnose_cmp;
          Alcotest.test_case "location mismatch" `Quick test_diagnose_locations;
          Alcotest.test_case "indexed" `Quick test_diagnose_indexed;
          Alcotest.test_case "overlap" `Quick test_diagnose_overlap;
        ] );
    ]
