(* Integration tests: the whole Zodiac pipeline end to end. *)

module Pipeline = Zodiac.Pipeline
module Report = Zodiac.Report
module Registry = Zodiac.Registry
module Scheduler = Zodiac_validation.Scheduler
module Check = Zodiac_spec.Check
module Arm = Zodiac_cloud.Arm
module Checkset = Zodiac.Checkset
module Sha256 = Zbench_lib.Sha256

let run_with ~corpus_size scheduler =
  Pipeline.run
    ~config:
      {
        Pipeline.quick_config with
        Pipeline.corpus_size;
        scheduler = { scheduler with Scheduler.max_iterations = 4 };
      }
    ()

let artifacts = lazy (run_with ~corpus_size:350 Scheduler.default_config)

(* sha256 of the check set file a validate run writes, i.e.
   [Checkset.save] of the final checks *)
let checkset_sha256 a =
  let path = Filename.temp_file "zodiac-checks" ".json" in
  Checkset.save_exn path a.Pipeline.final_checks;
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Sha256.digest_hex bytes

(* Byte pins of the validated check set: the default scheduler (O3
   groups fed by the TP-pass mutants) and the two ablations that skip
   grouping or reorder the passes. Planning changes that claim to be
   pure speedups must keep all three. *)
let test_checkset_pins () =
  Alcotest.(check string) "default, 350 projects"
    "515c51a04ecd6cc746ff25f8162696095ad69155596d75dfee642e99ad802da8"
    (checkset_sha256 (Lazy.force artifacts));
  List.iter
    (fun (c : Check.t) ->
      List.iter
        (fun (e : Check.endpoint) ->
          Alcotest.(check string) "endpoint round-trips" e.Check.attr
            (Zodiac_iac.Path.to_string (Zodiac_iac.Path.of_string e.Check.attr)))
        (Check.attrs_of_expr c.Check.cond @ Check.attrs_of_expr c.Check.stmt))
    (Lazy.force artifacts).Pipeline.final_checks;
  Alcotest.(check string) "no O3, 150 projects"
    "f579f98154484143cc4e4f04801281094e6d68f2a92e45b51203d4095cbfe32d"
    (checkset_sha256
       (run_with ~corpus_size:150
          { Scheduler.default_config with Scheduler.handle_indistinct = false }));
  Alcotest.(check string) "no O4, 150 projects"
    "08677823c30d91f9f7d50a663c3cb3b0ea181d59f2ca627534b08bfdb78c8eab"
    (checkset_sha256
       (run_with ~corpus_size:150
          { Scheduler.default_config with Scheduler.use_partial_order = false }))

let test_funnel_shape () =
  let a = Lazy.force artifacts in
  let mined = List.length a.Pipeline.mined in
  let kept = List.length a.Pipeline.filtered.Zodiac_mining.Filter.kept in
  let candidates = List.length a.Pipeline.candidates in
  let validated = List.length a.Pipeline.validation.Scheduler.validated in
  Alcotest.(check bool) "mined >> kept" true (mined > 3 * kept);
  Alcotest.(check bool) "candidates >= validated" true (candidates >= validated);
  Alcotest.(check bool) "some checks validated" true (validated > 20)

let test_validated_survive_deployment_testing () =
  (* every validated check's violation must actually break deployments:
     spot-check via the ground-truth scan of the corpus *)
  let a = Lazy.force artifacts in
  Alcotest.(check bool) "validation ran deployments" true
    (a.Pipeline.validation.Scheduler.deployments > List.length a.Pipeline.candidates / 2)

let test_counterexample_pass_bounded () =
  let a = Lazy.force artifacts in
  let v = List.length a.Pipeline.validation.Scheduler.validated in
  let fp = List.length a.Pipeline.counterexample_fps in
  Alcotest.(check bool) "small residual FP rate" true
    (v = 0 || float_of_int fp /. float_of_int v < 0.2)

let test_scan_finds_misconfigurations () =
  let a = Lazy.force artifacts in
  let reports =
    Pipeline.scan ~provider:Zodiac_azure.Azure.provider ~checks:a.Pipeline.final_checks
      ~corpus:a.Pipeline.corpus
  in
  (* the corpus has ~4% injected violations; the validated checks
     should catch some of them *)
  Alcotest.(check bool) "found violations" true (reports <> []);
  let buggy_projects =
    List.sort_uniq compare (List.map (fun r -> r.Pipeline.project) reports)
  in
  let injected =
    List.filter
      (fun p -> p.Zodiac_corpus.Generator.injected <> [])
      a.Pipeline.projects
  in
  Alcotest.(check bool) "plausible volume" true
    (List.length buggy_projects <= 3 * List.length injected + 10)

let test_report_renders () =
  let a = Lazy.force artifacts in
  let text = Report.full a in
  Alcotest.(check bool) "mentions phases" true (String.length text > 500)

let test_categories_present () =
  let a = Lazy.force artifacts in
  let breakdown = Report.category_breakdown a.Pipeline.final_checks in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 breakdown in
  Alcotest.(check bool) "nonzero" true (total > 0);
  Alcotest.(check bool) "intra present" true
    (List.assoc "intra-resource" breakdown > 0);
  Alcotest.(check bool) "inter present" true (List.assoc "inter w/o agg" breakdown > 0)

let test_registry_case_study () =
  let buggy = Registry.compile_exn Registry.appgw_assoc_buggy in
  let fixed = Registry.compile_exn Registry.appgw_assoc_fixed in
  Alcotest.(check bool) "buggy fails" false (Pipeline.deploy ~provider:Zodiac_azure.Azure.provider buggy);
  Alcotest.(check bool) "fixed deploys" true (Pipeline.deploy ~provider:Zodiac_azure.Azure.provider fixed);
  (match Arm.first_error (Arm.deploy ~provider:Zodiac_azure.Azure.provider buggy) with
  | Some f -> Alcotest.(check string) "first violation" "APPGW-IP-STANDARD" f.Arm.rule_id
  | None -> Alcotest.fail "expected failure")

let test_mine_only_skips_validation () =
  let a = Pipeline.mine_only ~config:{ Pipeline.quick_config with Pipeline.corpus_size = 120 } () in
  Alcotest.(check int) "no deployments" 0 a.Pipeline.validation.Scheduler.deployments;
  Alcotest.(check bool) "candidates exist" true (a.Pipeline.candidates <> [])

let test_determinism () =
  let config = { Pipeline.quick_config with Pipeline.corpus_size = 120 } in
  let a = Pipeline.mine_only ~config () in
  let b = Pipeline.mine_only ~config () in
  let cids x =
    List.map (fun (c : Check.t) -> c.Check.cid) x.Pipeline.candidates
    |> List.sort compare
  in
  Alcotest.(check (list string)) "same candidates" (cids a) (cids b)

let () =
  Alcotest.run "pipeline"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "funnel shape" `Slow test_funnel_shape;
          Alcotest.test_case "deployment-based validation" `Slow test_validated_survive_deployment_testing;
          Alcotest.test_case "counterexample pass" `Slow test_counterexample_pass_bounded;
          Alcotest.test_case "scan finds misconfigurations" `Slow test_scan_finds_misconfigurations;
          Alcotest.test_case "report renders" `Slow test_report_renders;
          Alcotest.test_case "categories" `Slow test_categories_present;
          Alcotest.test_case "appgw case study" `Quick test_registry_case_study;
          Alcotest.test_case "mine only" `Slow test_mine_only_skips_validation;
          Alcotest.test_case "determinism" `Slow test_determinism;
          Alcotest.test_case "check set pins" `Slow test_checkset_pins;
        ] );
    ]
