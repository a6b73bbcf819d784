(* Tests for the §6 use-case exports: natural-language insights, the
   RAG knowledge base, and the policy file. *)

module Export = Zodiac.Export
module Parser = Zodiac_spec.Spec_parser
module Json = Zodiac_util.Json

let checks =
  List.map Parser.parse_exn
    [
      "let r:SA in r.tier == 'Premium' => r.replica != 'GZRS'";
      "let r:VM in r.priority == 'Spot' => r.evict_policy != null";
      "let r1:VM, r2:NIC in conn(r1.nic_ids -> r2.id) => r1.location == r2.location";
      "let r1:GW, r2:SUBNET in conn(r1.ip_config.subnet_id -> r2.id) => outdegree(r2, !GW) == 0";
      "let r1:SUBNET, r2:SUBNET, r3:VPC in coconn(r1.vpc_name -> r3.name, r2.vpc_name -> r3.name) => !overlap(r1.cidr, r2.cidr)";
      "let r:VM in r.sku == 'Standard_F2s_v2' => indegree(r, NIC) <= 2";
    ]

let contains ~needle haystack =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_sentences () =
  let sentences = List.map Export.to_sentence checks in
  List.iter
    (fun s ->
      Alcotest.(check bool) "non-empty prose" true (String.length s > 30);
      Alcotest.(check bool) "ends with period" true (s.[String.length s - 1] = '.'))
    sentences;
  Alcotest.(check bool) "enum rendered" true
    (contains ~needle:"'Premium'" (List.nth sentences 0));
  Alcotest.(check bool) "null rendered as unset" true
    (contains ~needle:"must be set" (List.nth sentences 1));
  Alcotest.(check bool) "degree rendered" true
    (contains ~needle:"number of NIC resources" (List.nth sentences 5))

let test_insights_grouping () =
  let doc = Export.insights checks in
  List.iter
    (fun heading ->
      Alcotest.(check bool) (heading ^ " section") true
        (contains ~needle:("## " ^ heading) doc))
    [ "SA"; "VM"; "GW"; "SUBNET" ];
  Alcotest.(check bool) "formal check included" true
    (contains ~needle:"r.tier == 'Premium'" doc)

let test_rag_kb () =
  match Export.rag_knowledge_base checks with
  | Json.List entries ->
      Alcotest.(check int) "one entry per check" (List.length checks)
        (List.length entries);
      List.iter
        (fun entry ->
          Alcotest.(check bool) "has id" true
            (Json.string_value (Json.member "id" entry) <> None);
          Alcotest.(check bool) "has statement" true
            (Json.string_value (Json.member "statement" entry) <> None);
          Alcotest.(check bool) "has types" true
            (Json.to_list (Json.member "types" entry) <> []))
        entries;
      (* the KB must survive a JSON round trip (it is meant for RAG
         ingestion) *)
      let text = Json.to_string ~pretty:true (Json.List entries) in
      Alcotest.(check bool) "serializable" true
        (Json.equal (Json.List entries) (Json.of_string text))
  | _ -> Alcotest.fail "expected a list"

let test_policy_rules () =
  let policy = Export.policy_rules checks in
  Alcotest.(check bool) "one policy per check" true
    (List.length (String.split_on_char '\n' policy)
    > 4 * List.length checks);
  Alcotest.(check bool) "ids prefixed" true (contains ~needle:"ZODIAC_c" policy);
  Alcotest.(check bool) "resources listed" true (contains ~needle:"[SA]" policy)

(* ---------------- checkset persistence ------------------------------- *)

module Checkset = Zodiac.Checkset
module Check = Zodiac_spec.Check

let test_checkset_roundtrip () =
  match Checkset.of_json (Checkset.to_json checks) with
  | Ok loaded ->
      Alcotest.(check int) "count" (List.length checks) (List.length loaded);
      List.iter2
        (fun (a : Check.t) (b : Check.t) ->
          Alcotest.(check string) "cid preserved" a.Check.cid b.Check.cid)
        checks loaded
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

let test_checkset_file_roundtrip () =
  let path = Filename.temp_file "zodiac_checks" ".json" in
  Checkset.save_exn path checks;
  (match Checkset.load path with
  | Ok loaded -> Alcotest.(check int) "count" (List.length checks) (List.length loaded)
  | Error e -> Alcotest.failf "load failed: %s" e);
  Sys.remove path

let test_checkset_malformed () =
  (match Checkset.of_json (Json.Obj [ ("checks", Json.Null) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing list accepted");
  (match
    Checkset.of_json
      (Json.Obj [ ("checks", Json.List [ Json.Obj [ ("check", Json.String "garbage") ] ]) ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage check accepted");
  (* a check set file with a malformed index is refused, not scanned *)
  let path = Filename.temp_file "zodiac_checks" ".json" in
  let oc = open_out path in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ( "checks",
              Json.List
                [
                  Json.Obj
                    [
                      ( "check",
                        Json.String
                          "let r:SG in r.name == r.name => r.rule[ab].priority >= 60" );
                    ];
                ] );
          ]));
  close_out oc;
  let loaded = Checkset.load path in
  Sys.remove path;
  match loaded with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rule[ab] accepted"

let test_checkset_load_missing_file () =
  match Checkset.load "/nonexistent/zodiac.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file accepted"

let () =
  Alcotest.run "export"
    [
      ( "use cases",
        [
          Alcotest.test_case "sentences" `Quick test_sentences;
          Alcotest.test_case "insights" `Quick test_insights_grouping;
          Alcotest.test_case "rag kb" `Quick test_rag_kb;
          Alcotest.test_case "policy rules" `Quick test_policy_rules;
        ] );
      ( "checkset",
        [
          Alcotest.test_case "json roundtrip" `Quick test_checkset_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_checkset_file_roundtrip;
          Alcotest.test_case "malformed" `Quick test_checkset_malformed;
          Alcotest.test_case "missing file" `Quick test_checkset_load_missing_file;
        ] );
    ]
