(* Tests for the baseline checkers of Table 4. *)

module Checker = Zodiac_eval.Checker
module Baselines = Zodiac_eval.Baselines
module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
let provider = Zodiac_azure.Azure.provider

module Program = Zodiac_iac.Program
module Generator = Zodiac_corpus.Generator

let v_str s = Value.Str s

let vm_no_auth =
  Resource.make "VM" "m"
    [
      ("name", v_str "m"); ("location", v_str "eastus"); ("sku", v_str "Standard_B2s");
      ("nic_ids", Value.List []);
      ("os_disk", Value.Block [ ("name", v_str "d"); ("caching", v_str "None");
                                ("storage_type", v_str "Standard_LRS") ]);
    ]

let test_native_missing_required () =
  let incomplete = Resource.make "SUBNET" "s" [ ("name", v_str "x") ] in
  let findings = (Baselines.native provider).Checker.analyze (Program.of_resources [ incomplete ]) in
  Alcotest.(check bool) "missing attrs flagged" true
    (List.exists (fun f -> f.Checker.rule = "required-attribute") findings)

let test_native_bad_enum () =
  let bad =
    Resource.make "IP" "p"
      [ ("name", v_str "p"); ("location", v_str "eastus");
        ("allocation", v_str "Sometimes") ]
  in
  let findings = (Baselines.native provider).Checker.analyze (Program.of_resources [ bad ]) in
  Alcotest.(check bool) "enum violation flagged" true
    (List.exists (fun f -> f.Checker.rule = "invalid-value") findings)

let test_native_vm_auth () =
  let findings = (Baselines.native provider).Checker.analyze (Program.of_resources [ vm_no_auth ]) in
  Alcotest.(check bool) "missing auth flagged" true
    (List.exists (fun f -> f.Checker.rule = "missing-authentication") findings)

let test_native_silent_on_semantic_bugs () =
  (* the semantic gap: a premium/GZRS storage account passes native
     validation *)
  let sa =
    Resource.make "SA" "s"
      [ ("name", v_str "s"); ("location", v_str "eastus");
        ("tier", v_str "Premium"); ("replica", v_str "GZRS") ]
  in
  Alcotest.(check (list string)) "no findings" []
    (List.map (fun f -> f.Checker.rule)
       ((Baselines.native provider).Checker.analyze (Program.of_resources [ sa ])))

let test_checkov_broad () =
  let sa =
    Resource.make "SA" "s"
      [ ("name", v_str "s"); ("location", v_str "eastus");
        ("tier", v_str "Standard"); ("replica", v_str "LRS");
        ("https_only", Value.Bool false); ("min_tls", v_str "TLS1_0") ]
  in
  let findings = Baselines.checkov.Checker.analyze (Program.of_resources [ sa ]) in
  Alcotest.(check bool) "several findings" true (List.length findings >= 2);
  List.iter
    (fun f -> Alcotest.(check bool) "security findings" true f.Checker.security_related)
    findings

let test_tfsec_ssh_rule () =
  let sg =
    Resource.make "SG" "g"
      [ ("name", v_str "g"); ("location", v_str "eastus");
        ( "rule",
          Value.List
            [
              Value.Block
                [ ("name", v_str "ssh"); ("dir", v_str "Inbound");
                  ("access", v_str "Allow"); ("priority", Value.Int 100);
                  ("protocol", v_str "Tcp"); ("source_port_range", v_str "*");
                  ("dest_port_range", v_str "22");
                  ("source_cidr", v_str "0.0.0.0/0"); ("dest_cidr", v_str "0.0.0.0/0") ];
            ] ) ]
  in
  let findings = Baselines.tfsec.Checker.analyze (Program.of_resources [ sg ]) in
  Alcotest.(check bool) "ssh open flagged" true (findings <> [])

let test_tflint_cannot_read_plans () =
  Alcotest.(check bool) "hcl only" false Baselines.tflint.Checker.supports_plan_json;
  Alcotest.(check (list string)) "no findings on plans" []
    (List.map (fun f -> f.Checker.rule)
       (Baselines.tflint.Checker.analyze (Program.of_resources [ vm_no_auth ])))

let test_prevalence_ordering () =
  (* on a realistic corpus, checkov flags far more programs than tfcomp *)
  let programs =
    List.map
      (fun p -> p.Generator.program)
      (Generator.generate ~provider ~seed:202 ~count:600 ())
  in
  let p_checkov = Checker.prevalence Baselines.checkov programs in
  let p_tfcomp = Checker.prevalence Baselines.tfcomp programs in
  let p_tfsec = Checker.prevalence Baselines.tfsec programs in
  Alcotest.(check bool)
    (Printf.sprintf "checkov (%.2f) > tfsec (%.2f) > tfcomp (%.2f)" p_checkov p_tfsec p_tfcomp)
    true
    (p_checkov > p_tfsec && p_tfsec >= p_tfcomp);
  Alcotest.(check bool) "checkov broad" true (p_checkov > 0.4)

let test_all_have_metadata () =
  List.iter
    (fun (c : Checker.t) ->
      Alcotest.(check bool) (c.Checker.name ^ " metadata") true
        (String.length c.Checker.spec_format > 0 && String.length c.Checker.input_phase > 0))
    (Baselines.all provider);
  Alcotest.(check int) "six baselines" 6 (List.length (Baselines.all provider))

let () =
  Alcotest.run "checkers"
    [
      ( "native",
        [
          Alcotest.test_case "missing required" `Quick test_native_missing_required;
          Alcotest.test_case "bad enum" `Quick test_native_bad_enum;
          Alcotest.test_case "vm auth conflict" `Quick test_native_vm_auth;
          Alcotest.test_case "silent on semantic bugs" `Quick test_native_silent_on_semantic_bugs;
        ] );
      ( "security",
        [
          Alcotest.test_case "checkov breadth" `Quick test_checkov_broad;
          Alcotest.test_case "tfsec ssh" `Quick test_tfsec_ssh_rule;
          Alcotest.test_case "tflint format" `Quick test_tflint_cannot_read_plans;
          Alcotest.test_case "prevalence ordering" `Slow test_prevalence_ordering;
          Alcotest.test_case "metadata" `Quick test_all_have_metadata;
        ] );
    ]
