(* Tests for the provider seam: cross-provider cache isolation, Azure
   mine byte-identity across parallelism knobs, the AWS backend's
   end-to-end pipeline and serve session, and per-provider SARIF
   rule-id prefixes. *)

module Pipeline = Zodiac.Pipeline
module Registry = Zodiac.Registry
module Scheduler = Zodiac_validation.Scheduler
module Candidate = Zodiac_mining.Candidate
module Check = Zodiac_spec.Check
module Generator = Zodiac_corpus.Generator
module Codec = Zodiac_util.Codec
module Cache = Zodiac_util.Cache
module Scan = Zodiac_serve.Scan
module Sarif = Zodiac_serve.Sarif
module Session = Zodiac_serve.Session
module Protocol = Zodiac_serve.Protocol
module Json = Zodiac_util.Json

let azure = Zodiac_azure.Azure.provider
let aws = Zodiac_aws.Aws.provider

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* ------------- cross-provider cache isolation ------------------------- *)

let test_cache_not_shared () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "zodiac-test-provider-cache"
  in
  rm_rf dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cfg provider =
        {
          Pipeline.default_config with
          Pipeline.provider;
          corpus_size = 60;
          cache_dir = Some dir;
        }
      in
      let cold = Pipeline.mine_only ~config:(cfg azure) () in
      Alcotest.(check bool) "azure cold run writes entries" true
        (cold.Pipeline.cache_stats.Cache.writes > 0);
      let warm = Pipeline.mine_only ~config:(cfg azure) () in
      Alcotest.(check bool) "azure warm run hits its own entries" true
        (warm.Pipeline.cache_stats.Cache.hits > 0);
      (* the provider fingerprint is part of every cache key: an AWS run
         over the same directory must never consume an Azure entry *)
      let aws_run = Pipeline.mine_only ~config:(cfg aws) () in
      Alcotest.(check int) "aws run never hits the warm azure cache" 0
        aws_run.Pipeline.cache_stats.Cache.hits;
      Alcotest.(check bool) "aws run still caches its own entries" true
        (aws_run.Pipeline.cache_stats.Cache.writes > 0);
      let aws_warm = Pipeline.mine_only ~config:(cfg aws) () in
      Alcotest.(check bool) "aws warm run hits aws entries" true
        (aws_warm.Pipeline.cache_stats.Cache.hits > 0))

(* ------------- azure mine byte-identity (qcheck) ----------------------- *)

let base_cfg = { Pipeline.default_config with Pipeline.corpus_size = 80 }

let mined_bytes mined candidates =
  Codec.encode ~stage:"test-provider" (fun b ->
      Codec.write_list Candidate.write b mined;
      Codec.write_list Check.write b candidates)

let reference_bytes =
  lazy
    (let a =
       Pipeline.mine_only ~config:{ base_cfg with Pipeline.jobs = 1 } ()
     in
     mined_bytes a.Pipeline.mined a.Pipeline.candidates)

let prop_mine_invariant =
  QCheck.Test.make
    ~name:"azure mined artifacts byte-identical across (jobs, shard_size)"
    ~count:5
    QCheck.(pair (int_range 1 4) (int_range 5 40))
    (fun (jobs, shard_size) ->
      let config = { base_cfg with Pipeline.jobs } in
      let a = Pipeline.mine_only ~config () in
      let s = Pipeline.mine_streamed ~config ~shard_size () in
      String.equal (Lazy.force reference_bytes)
        (mined_bytes a.Pipeline.mined a.Pipeline.candidates)
      && String.equal (Lazy.force reference_bytes)
           (mined_bytes s.Pipeline.s_mined s.Pipeline.s_candidates))

(* ------------- aws end-to-end pipeline -------------------------------- *)

let test_aws_pipeline () =
  let config =
    { Pipeline.quick_config with Pipeline.provider = aws; corpus_size = 120 }
  in
  let a = Pipeline.run ~config () in
  Alcotest.(check bool) "mined candidates nonempty" true
    (a.Pipeline.mined <> []);
  Alcotest.(check bool) "candidates reach validation" true
    (a.Pipeline.candidates <> []);
  Alcotest.(check bool) "validated check set nonempty" true
    (a.Pipeline.validation.Scheduler.validated <> []);
  Alcotest.(check bool) "counterexample pass leaves final checks" true
    (a.Pipeline.final_checks <> [])

(* ------------- per-provider SARIF rule-id prefixes --------------------- *)

let scan_ground_truth provider src =
  match
    Scan.scan_source ~provider
      ~checks:(Scan.ground_truth_entries provider)
      ~file:"main.tf" src
  with
  | Ok findings -> findings
  | Error e -> Alcotest.failf "scan failed: %s" e

let test_sarif_rule_prefixes () =
  let aws_findings = scan_ground_truth aws Registry.aws_db_buggy in
  Alcotest.(check bool) "aws scan finds violations" true (aws_findings <> []);
  List.iter
    (fun (f : Sarif.finding) ->
      Alcotest.(check bool)
        (f.Sarif.rule_id ^ " carries the AWS- prefix")
        true
        (String.starts_with ~prefix:"AWS-" f.Sarif.rule_id))
    aws_findings;
  let azure_findings = scan_ground_truth azure Registry.mssql_db_buggy in
  Alcotest.(check bool) "azure scan finds violations" true
    (azure_findings <> []);
  List.iter
    (fun (f : Sarif.finding) ->
      Alcotest.(check bool)
        (f.Sarif.rule_id ^ " is not AWS-prefixed")
        false
        (String.starts_with ~prefix:"AWS-" f.Sarif.rule_id))
    azure_findings

(* ------------- an aws serve session ------------------------------------ *)

(* A daemon session started for aws reports aws in [stats] and scans
   aws sources to AWS- rules. *)
let test_aws_session () =
  let config = { Session.default_config with Session.provider = aws } in
  let session =
    match Session.create config with
    | Ok s -> s
    | Error e -> Alcotest.failf "session: %s" e
  in
  (match Session.handle session Protocol.Stats with
  | Ok stats ->
      Alcotest.(check (option string))
        "stats report aws" (Some "aws")
        (Json.string_value (Json.member "provider" stats))
  | Error e -> Alcotest.failf "stats: %s" e.Protocol.message);
  match
    Session.handle session
      (Protocol.Scan_file { path = "main.tf"; source = Some Registry.aws_db_buggy })
  with
  | Error e -> Alcotest.failf "scan: %s" e.Protocol.message
  | Ok sarif ->
      let ids =
        List.concat_map
          (fun run ->
            List.filter_map
              (fun r -> Json.string_value (Json.member "ruleId" r))
              (Json.to_list (Json.member "results" run)))
          (Json.to_list (Json.member "runs" sarif))
      in
      Alcotest.(check bool) "aws scan finds violations" true (ids <> []);
      Alcotest.(check bool)
        "every rule id carries the AWS- prefix" true
        (List.for_all (String.starts_with ~prefix:"AWS-") ids)

(* ------------- provider detection ------------------------------------ *)

module Providers = Zodiac_providers.Providers

let detected src =
  Option.map (fun p -> p.Zodiac_provider.Provider.name) (Providers.detect_source src)

let test_detect_edges () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check (option string)) (Printf.sprintf "detect %S" src) expected (detected src))
    [
      ("", None);
      ("aws", None);
      ("azurerm", None);
      ("x aws_", Some "aws");
      ("x azurerm_", Some "azure");
      ("aws_ azurerm_", Some "azure");
      ("azurerm_aws_", Some "azure");
      ("aws_aws_ azurerm_", Some "aws");
      ("aaws_ azurerm azurerm", Some "aws");
    ];
  Alcotest.(check (option string)) "of_tf_type" (Some "aws")
    (Option.map (fun p -> p.Zodiac_provider.Provider.name) (Providers.of_tf_type "aws_instance"));
  Alcotest.(check bool) "of_tf_type bare prefix stem" true (Providers.of_tf_type "aws" = None)

let () =
  Alcotest.run "provider"
    [
      ( "cache",
        [ Alcotest.test_case "no cross-provider hits" `Slow test_cache_not_shared ] );
      ( "byte-identity",
        List.map QCheck_alcotest.to_alcotest [ prop_mine_invariant ] );
      ( "aws",
        [
          Alcotest.test_case "end-to-end pipeline" `Slow test_aws_pipeline;
          Alcotest.test_case "serve session" `Quick test_aws_session;
        ] );
      ( "sarif",
        [
          Alcotest.test_case "rule-id prefixes" `Quick test_sarif_rule_prefixes;
        ] );
      ( "detect",
        [ Alcotest.test_case "majority, ties and near-misses" `Quick test_detect_edges ] );
    ]
