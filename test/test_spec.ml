(* Tests for the check specification language: parsing, printing,
   evaluation semantics. *)

module Check = Zodiac_spec.Check
module Parser = Zodiac_spec.Spec_parser
module Printer = Zodiac_spec.Spec_printer
module Eval = Zodiac_spec.Eval
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
  match Diagnose.all g premium_check with
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
  match Diagnose.all g check with
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
  match Diagnose.all (graph_of [ sg ]) check with
  | d :: _ ->
      Alcotest.(check bool) "shows the clashing priority" true
        (has_sub ~needle:"100" d.Diagnose.explanation)
  | [] -> Alcotest.fail "expected a diagnosis"

let test_diagnose_overlap () =
  let g =
    graph_of [ vpc "v"; subnet "s1" "v" "10.0.1.0/24"; subnet "s2" "v" "10.0.1.0/25" ]
  in
  match Diagnose.all g overlap_check with
  | d :: _ ->
      Alcotest.(check bool) "mentions the ranges" true
        (has_sub ~needle:"10.0.1.0" d.Diagnose.explanation)
  | [] -> Alcotest.fail "expected a diagnosis"

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
        ] );
      ( "diagnose",
        [
          Alcotest.test_case "comparison" `Quick test_diagnose_cmp;
          Alcotest.test_case "location mismatch" `Quick test_diagnose_locations;
          Alcotest.test_case "indexed" `Quick test_diagnose_indexed;
          Alcotest.test_case "overlap" `Quick test_diagnose_overlap;
        ] );
    ]
