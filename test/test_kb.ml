(* Tests for the semantic knowledge base. *)

module Kb = Zodiac_kb.Kb
module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Schema = Zodiac_iac.Schema
module Generator = Zodiac_corpus.Generator

let sa tier name =
  Resource.make "SA" name [ ("name", Value.Str name); ("tier", Value.Str tier) ]

let tiny_corpus =
  [
    Program.of_resources
      [
        sa "Standard" "a";
        Resource.make "SUBNET" "s"
          [
            ("name", Value.Str "sub");
            ("vpc_name", Value.reference "VPC" "v" "name");
            ("cidr", Value.Str "10.0.1.0/24");
          ];
        Resource.make "VPC" "v" [ ("name", Value.Str "v") ];
      ];
    Program.of_resources [ sa "Premium" "b"; sa "Standard" "c" ];
  ]

let provider = Zodiac_azure.Azure.provider
let kb = Kb.build ~provider ~projects:tiny_corpus ()

let test_class1_from_schema () =
  match Kb.attr_info kb ~rtype:"SUBNET" ~attr:"vpc_name" with
  | Some info ->
      Alcotest.(check bool) "required" true
        (info.Kb.requirement = Some Schema.Required)
  | None -> Alcotest.fail "schema attribute missing from KB"

let test_class2_observations () =
  match Kb.attr_info kb ~rtype:"SA" ~attr:"tier" with
  | Some info ->
      Alcotest.(check int) "two values observed" 2 (List.length info.Kb.observed);
      let standard =
        List.assoc_opt (Value.Str "Standard") info.Kb.observed
      in
      Alcotest.(check (option int)) "standard count" (Some 2) standard
  | None -> Alcotest.fail "missing entry"

let test_class2_declared_enum () =
  (* declared enums survive even without observations *)
  let values = Kb.enum_values kb ~rtype:"IP" ~attr:"sku" in
  Alcotest.(check bool) "declared enum present" true
    (List.mem (Value.Str "Basic") values && List.mem (Value.Str "Standard") values)

let test_class3_conn_kinds () =
  let kinds = Kb.conn_kinds_from kb "SUBNET" in
  Alcotest.(check bool) "subnet->vpc observed" true
    (List.exists
       (fun (k : Kb.conn_kind) ->
         k.Kb.dst_type = "VPC" && k.Kb.src_attr = "vpc_name" && k.Kb.dst_attr = "name")
       kinds);
  Alcotest.(check bool) "legal target" true
    (List.mem ("VPC", "name")
       (Kb.legal_targets kb ~src_type:"SUBNET" ~src_attr:"vpc_name"))

let test_cidr_attrs () =
  Alcotest.(check bool) "subnet cidr recognized" true
    (List.mem "cidr" (Kb.cidr_attrs kb "SUBNET"))

let test_population () =
  Alcotest.(check int) "3 storage accounts" 3 (Kb.population kb "SA");
  Alcotest.(check int) "unknown type" 0 (Kb.population kb "NOPE")

let test_types_include_catalog () =
  Alcotest.(check bool) "catalog types known" true
    (List.mem "REDIS" (Kb.types kb))

(* --- larger synthetic corpus ----------------------------------------- *)

let big_kb =
  let projects = Generator.conforming ~provider ~seed:5 ~count:200 () in
  Kb.build ~provider ~projects:(List.map (fun p -> p.Generator.program) projects) ()

let test_enum_detection_on_corpus () =
  (* names are high-cardinality: never enum-like *)
  Alcotest.(check (list (of_pp Zodiac_iac.Value.pp))) "vm name not enum" []
    (Kb.enum_values big_kb ~rtype:"VM" ~attr:"name")

let test_reserved_name_observed () =
  match Kb.attr_info big_kb ~rtype:"SUBNET" ~attr:"name" with
  | Some info ->
      Alcotest.(check bool) "GatewaySubnet frequent" true
        (match List.assoc_opt (Value.Str "GatewaySubnet") info.Kb.observed with
        | Some c -> c >= 5
        | None -> false)
  | None -> Alcotest.fail "missing entry"

let test_conn_kind_counts_ordered () =
  let kinds = Kb.conn_kinds big_kb in
  let rec descending = function
    | (a : Kb.conn_kind) :: (b :: _ as rest) ->
        a.Kb.count >= b.Kb.count && descending rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by frequency" true (descending kinds);
  Alcotest.(check bool) "nontrivial" true (List.length kinds > 10)

let test_kb_size () = Alcotest.(check bool) "hundreds of entries" true (Kb.size big_kb > 400)

(* The per-type index against its definition: a type's entries sorted
   by attribute, and their [Cidr_format] subset. [Kb.t] does not list
   its entries, so "all of them" is checked by count: each type's list
   holds only that type's entries, each once, and the lists of all
   types add up to [Kb.size]. *)
let check_type_index kb =
  let indexed =
    List.fold_left
      (fun acc ty ->
        let attrs = Kb.attrs_of_type kb ty in
        List.iter
          (fun (info : Kb.attr_info) ->
            Alcotest.(check string) "entry of its type" ty info.Kb.rtype;
            Alcotest.(check bool)
              (Printf.sprintf "%s.%s is the KB entry" ty info.Kb.attr)
              true
              (match Kb.attr_info kb ~rtype:ty ~attr:info.Kb.attr with
              | Some entry -> entry == info
              | None -> false))
          attrs;
        let paths = List.map (fun (i : Kb.attr_info) -> i.Kb.attr) attrs in
        Alcotest.(check (list string))
          (ty ^ " sorted by attribute, no repeats")
          (List.sort_uniq String.compare paths) paths;
        Alcotest.(check (list string))
          (ty ^ " cidr attrs")
          (List.filter_map
             (fun (i : Kb.attr_info) ->
               if i.Kb.format = Schema.Cidr_format then Some i.Kb.attr else None)
             attrs)
          (Kb.cidr_attrs kb ty);
        acc + List.length attrs)
      0 (Kb.types kb)
  in
  Alcotest.(check int) "every entry indexed" (Kb.size kb) indexed;
  Alcotest.(check int) "unknown type: no attrs" 0
    (List.length (Kb.attrs_of_type kb "NO_SUCH_TYPE"));
  Alcotest.(check (list string)) "unknown type: no cidr attrs" []
    (Kb.cidr_attrs kb "NO_SUCH_TYPE")

let test_type_index () =
  check_type_index kb;
  check_type_index big_kb;
  let aws = Zodiac_aws.Aws.provider in
  let projects = Generator.conforming ~provider:aws ~seed:5 ~count:60 () in
  check_type_index
    (Kb.build ~provider:aws ~projects:(List.map (fun p -> p.Generator.program) projects) ())

let () =
  Alcotest.run "kb"
    [
      ( "classes",
        [
          Alcotest.test_case "class 1 native" `Quick test_class1_from_schema;
          Alcotest.test_case "class 2 observations" `Quick test_class2_observations;
          Alcotest.test_case "class 2 declared enums" `Quick test_class2_declared_enum;
          Alcotest.test_case "class 3 references" `Quick test_class3_conn_kinds;
          Alcotest.test_case "cidr attrs" `Quick test_cidr_attrs;
          Alcotest.test_case "population" `Quick test_population;
          Alcotest.test_case "types" `Quick test_types_include_catalog;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "enum detection" `Quick test_enum_detection_on_corpus;
          Alcotest.test_case "reserved names" `Quick test_reserved_name_observed;
          Alcotest.test_case "conn kinds ordered" `Quick test_conn_kind_counts_ordered;
          Alcotest.test_case "size" `Quick test_kb_size;
          Alcotest.test_case "per-type index" `Quick test_type_index;
        ] );
    ]
