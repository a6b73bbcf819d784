(* Tests for the resilient deployment-execution engine: backoff
   schedule, circuit-breaker state machine, α-canonical cache keying,
   the retry client, and the headline soundness property — verdicts
   under injected transient faults equal fault-free verdicts. *)

module Backoff = Zodiac_engine.Backoff
module Breaker = Zodiac_engine.Breaker
module Fingerprint = Zodiac_engine.Fingerprint
module Memo = Zodiac_engine.Memo
module Stats = Zodiac_engine.Stats
module Client = Zodiac_engine.Client
module Engine = Zodiac_engine.Engine
module Flaky = Zodiac_cloud.Flaky
module Arm = Zodiac_cloud.Arm
module Provider = Zodiac_provider.Provider
module Scheduler = Zodiac_validation.Scheduler
module Generator = Zodiac_corpus.Generator
module Kb = Zodiac_kb.Kb
module Miner = Zodiac_mining.Miner
module Check = Zodiac_spec.Check
module Parser = Zodiac_spec.Spec_parser
module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Prng = Zodiac_util.Prng

let provider = Zodiac_azure.Azure.provider

(* ---------------- backoff -------------------------------------------- *)

let test_backoff_schedule () =
  let config = Backoff.default in
  let schedule = Backoff.schedule config ~attempts:7 in
  Alcotest.(check (list (float 1e-9)))
    "doubling, capped"
    [ 1.0; 2.0; 4.0; 8.0; 16.0; 30.0; 30.0 ]
    schedule

let test_backoff_jitter_bounds () =
  let config = Backoff.default in
  let prng = Prng.create 3 in
  for attempt = 0 to 9 do
    let raw = Backoff.raw_delay config ~attempt in
    let d = Backoff.delay config ~prng ~attempt in
    Alcotest.(check bool) "within [raw/2, raw]" true
      (d >= (raw *. 0.5) -. 1e-9 && d <= raw +. 1e-9);
    Alcotest.(check bool) "positive" true (d > 0.0)
  done

(* ---------------- circuit breaker ------------------------------------ *)

let test_breaker_state_machine () =
  let b = Breaker.create { Breaker.failure_threshold = 3; cooldown = 10.0 } in
  Alcotest.(check bool) "starts closed" true (Breaker.state b ~now:0.0 = Breaker.Closed);
  Breaker.record_failure b ~now:0.0;
  Breaker.record_failure b ~now:1.0;
  Alcotest.(check bool) "below threshold: closed" true
    (Breaker.state b ~now:1.0 = Breaker.Closed);
  Breaker.record_failure b ~now:2.0;
  Alcotest.(check bool) "tripped open" true (Breaker.state b ~now:2.0 = Breaker.Open);
  Alcotest.(check int) "one open" 1 (Breaker.opens b);
  Alcotest.(check (option (float 1e-9))) "reopen time" (Some 12.0)
    (Breaker.open_until b ~now:2.0);
  Alcotest.(check bool) "still open before cooldown" true
    (Breaker.state b ~now:11.9 = Breaker.Open);
  Alcotest.(check bool) "half-open after cooldown" true
    (Breaker.state b ~now:12.0 = Breaker.Half_open);
  (* a failure during the probe re-trips immediately *)
  Breaker.record_failure b ~now:12.0;
  Alcotest.(check bool) "re-tripped" true (Breaker.state b ~now:12.0 = Breaker.Open);
  Alcotest.(check int) "two opens" 2 (Breaker.opens b);
  (* a successful probe closes *)
  Breaker.record_success b;
  Alcotest.(check bool) "closed after success" true
    (Breaker.state b ~now:12.0 = Breaker.Closed)

(* ---------------- fingerprint + memo keying -------------------------- *)

let vpc name =
  Resource.make "VPC" name
    [
      ("name", Value.Str "net");
      ("location", Value.Str "eastus");
      ("address_space", Value.List [ Value.Str "10.0.0.0/16" ]);
    ]

let subnet name ~vpc ~cidr =
  Resource.make "SUBNET" name
    [
      ("name", Value.Str "s");
      ("vpc_name", Value.reference "VPC" vpc "name");
      ("cidr", Value.Str cidr);
    ]

let prog_ab = Program.of_resources [ vpc "a"; subnet "b" ~vpc:"a" ~cidr:"10.0.1.0/24" ]

(* α-equivalent: local names renamed, resource order permuted *)
let prog_yx = Program.of_resources [ subnet "x" ~vpc:"y" ~cidr:"10.0.1.0/24"; vpc "y" ]

let prog_other_attr =
  Program.of_resources [ vpc "a"; subnet "b" ~vpc:"a" ~cidr:"10.0.2.0/24" ]

let test_fingerprint_alpha_equivalence () =
  Alcotest.(check bool) "renamed + reordered program hits" true
    (Fingerprint.equivalent prog_ab prog_yx);
  Alcotest.(check string) "digests agree"
    (Fingerprint.digest prog_ab) (Fingerprint.digest prog_yx)

let test_fingerprint_attr_miss () =
  Alcotest.(check bool) "differing attr misses" false
    (Fingerprint.equivalent prog_ab prog_other_attr)

let test_fingerprint_distinguishes_targets () =
  (* same multiset of resources, different wiring *)
  let p1 =
    Program.of_resources
      [ vpc "a"; vpc "b"; subnet "s1" ~vpc:"a" ~cidr:"10.0.1.0/24";
        subnet "s2" ~vpc:"a" ~cidr:"10.0.2.0/24" ]
  in
  let p2 =
    Program.of_resources
      [ vpc "a"; vpc "b"; subnet "s1" ~vpc:"a" ~cidr:"10.0.1.0/24";
        subnet "s2" ~vpc:"b" ~cidr:"10.0.2.0/24" ]
  in
  Alcotest.(check bool) "different wiring misses" false
    (Fingerprint.equivalent p1 p2)

let test_memo_lru () =
  let cache = Memo.create ~capacity:2 () in
  Memo.add cache "k1" 1;
  Memo.add cache "k2" 2;
  Alcotest.(check (option int)) "hit k1" (Some 1) (Memo.find cache "k1");
  (* k2 is now least recently used; inserting k3 evicts it *)
  Memo.add cache "k3" 3;
  Alcotest.(check int) "one eviction" 1 (Memo.evictions cache);
  Alcotest.(check (option int)) "k2 evicted" None (Memo.find cache "k2");
  Alcotest.(check (option int)) "k1 kept" (Some 1) (Memo.find cache "k1");
  Alcotest.(check int) "length bounded" 2 (Memo.length cache);
  Alcotest.(check int) "hits" 2 (Memo.hits cache);
  Alcotest.(check int) "misses" 1 (Memo.misses cache)

(* ---------------- resilient client ----------------------------------- *)

let always_fault : Zodiac_iac.Program.t -> Flaky.response =
 fun _ ->
  Flaky.Fault
    { Flaky.kind = Flaky.Throttled; phase = Provider.Create; retry_after = 1.0 }

let test_client_recovers_within_burst_cap () =
  let stats = Stats.create () in
  let flaky =
    Flaky.create ~provider { Flaky.seed = 9; fault_rate = 1.0; max_consecutive = 3 }
  in
  let client = Client.create ~stats (Flaky.deploy flaky) in
  (match Client.deploy client prog_ab with
  | Ok outcome -> Alcotest.(check bool) "genuine success" true (Arm.success outcome)
  | Error e -> Alcotest.fail (Client.error_to_string e));
  let s = Stats.basic_snapshot stats in
  Alcotest.(check int) "burst-cap attempts" 4 s.Stats.attempts;
  Alcotest.(check int) "three retries" 3 s.Stats.retries;
  Alcotest.(check int) "three faults" 3 s.Stats.faults;
  Alcotest.(check bool) "waited" true (s.Stats.sim_seconds > 0.0)

let test_client_budget_exhaustion () =
  let stats = Stats.create () in
  let config = { Client.default_config with Client.max_retries = 2 } in
  let client = Client.create ~config ~stats always_fault in
  (match Client.deploy client prog_ab with
  | Ok _ -> Alcotest.fail "expected budget exhaustion"
  | Error (Client.Budget_exhausted f) ->
      Alcotest.(check string) "last fault kind" "throttled"
        (Flaky.kind_to_string f.Flaky.kind)
  | Error e -> Alcotest.fail (Client.error_to_string e));
  Alcotest.(check int) "giveup recorded" 1 (Stats.basic_snapshot stats).Stats.giveups

let test_client_deadline () =
  let stats = Stats.create () in
  let config =
    { Client.default_config with Client.max_retries = 50; deadline = Some 10.0 }
  in
  let client = Client.create ~config ~stats always_fault in
  match Client.deploy client prog_ab with
  | Error (Client.Deadline_exceeded t) ->
      Alcotest.(check bool) "clock past deadline" true (t > 10.0)
  | Ok _ | Error _ -> Alcotest.fail "expected deadline exceeded"

let test_client_breaker_paces () =
  let stats = Stats.create () in
  let config =
    {
      Client.default_config with
      Client.max_retries = 10;
      breaker = { Breaker.failure_threshold = 2; cooldown = 500.0 };
    }
  in
  let flaky =
    Flaky.create ~provider { Flaky.seed = 9; fault_rate = 1.0; max_consecutive = 5 }
  in
  let client = Client.create ~config ~stats (Flaky.deploy flaky) in
  (match Client.deploy client prog_ab with
  | Ok outcome -> Alcotest.(check bool) "recovered" true (Arm.success outcome)
  | Error e -> Alcotest.fail (Client.error_to_string e));
  let s = Stats.basic_snapshot stats in
  Alcotest.(check bool) "breaker tripped" true (s.Stats.breaker_opens >= 1);
  Alcotest.(check bool) "cooldown paid in simulated time" true
    (s.Stats.sim_seconds >= 500.0)

(* ---------------- engine memoization --------------------------------- *)

let test_engine_memoizes_alpha_equivalent () =
  let engine = Engine.create ~provider () in
  Alcotest.(check bool) "first deploy" true (Engine.success engine prog_ab);
  Alcotest.(check bool) "same program" true (Engine.success engine prog_ab);
  Alcotest.(check bool) "renamed mutant" true (Engine.success engine prog_yx);
  Alcotest.(check bool) "differing attrs" true
    (Engine.success engine prog_other_attr);
  let s = Engine.stats engine in
  Alcotest.(check int) "four requests" 4 s.Stats.requests;
  Alcotest.(check int) "two raw deployments" 2 s.Stats.attempts;
  Alcotest.(check int) "two saved" 2 s.Stats.deployments_saved

(* ---------------- verdict stability under faults --------------------- *)

let corpus =
  lazy
    (List.map
       (fun p -> (p.Generator.pname, p.Generator.program))
       (Generator.generate ~provider ~seed:55 ~count:200 ()))

let kb =
  lazy (Kb.build ~provider ~projects:(Miner.materialize ~provider (List.map snd (Lazy.force corpus))) ())

let candidates =
  lazy
    (List.map Parser.parse_exn
       [
         "let r:SA in r.tier == 'Premium' => r.replica != 'GZRS'";
         "let r:VM in r.priority == 'Spot' => r.evict_policy != null";
         "let r:IP in r.sku == 'Standard' => r.allocation == 'Static'";
         "let r:SA in r.https_only == true => r.replica == 'LRS'";
         "let r:VM in r.os_disk.caching == 'ReadWrite' => r.priority == 'Regular'";
       ])

let verdict_sets (result : Scheduler.result) =
  let cids cs =
    List.sort String.compare (List.map (fun (c : Check.t) -> c.Check.cid) cs)
  in
  (cids result.Scheduler.validated, cids (List.map fst result.Scheduler.falsified))

let run_with_oracle deploy =
  Scheduler.run ~provider ~kb:(Lazy.force kb) ~corpus:(Lazy.force corpus) ~deploy
    (Lazy.force candidates)

let baseline =
  lazy (verdict_sets (run_with_oracle (fun p -> Arm.success (Arm.deploy ~provider p))))

let fault_stability_prop =
  QCheck.Test.make ~count:8 ~name:"verdicts under faults = fault-free verdicts"
    QCheck.(pair (float_range 0.0 0.9) small_nat)
    (fun (fault_rate, seed) ->
      (* retry budget (default 5) exceeds the burst cap (3): recovery of
         the genuine outcome is guaranteed, so verdict sets must match
         the fault-free run for ANY rate and seed *)
      let engine =
        Engine.create ~provider ~config:(Engine.faulty_config ~fault_rate ~seed ()) ()
      in
      let result = run_with_oracle (Engine.oracle engine) in
      verdict_sets result = Lazy.force baseline)

let test_default_fault_rate_nonzero () =
  Alcotest.(check bool) "default fault rate nonzero" true
    (Flaky.default_config.Flaky.fault_rate > 0.0)

let () =
  Alcotest.run "engine"
    [
      ( "backoff",
        [
          Alcotest.test_case "schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "jitter bounds" `Quick test_backoff_jitter_bounds;
        ] );
      ( "breaker",
        [ Alcotest.test_case "state machine" `Quick test_breaker_state_machine ] );
      ( "cache",
        [
          Alcotest.test_case "alpha-equivalent programs hit" `Quick
            test_fingerprint_alpha_equivalence;
          Alcotest.test_case "differing attrs miss" `Quick test_fingerprint_attr_miss;
          Alcotest.test_case "different wiring misses" `Quick
            test_fingerprint_distinguishes_targets;
          Alcotest.test_case "lru eviction" `Quick test_memo_lru;
        ] );
      ( "client",
        [
          Alcotest.test_case "recovers within burst cap" `Quick
            test_client_recovers_within_burst_cap;
          Alcotest.test_case "budget exhaustion" `Quick test_client_budget_exhaustion;
          Alcotest.test_case "deadline accounting" `Quick test_client_deadline;
          Alcotest.test_case "breaker paces, never drops" `Quick
            test_client_breaker_paces;
        ] );
      ( "engine",
        [
          Alcotest.test_case "memoizes alpha-equivalent mutants" `Quick
            test_engine_memoizes_alpha_equivalent;
          Alcotest.test_case "default fault rate nonzero" `Quick
            test_default_fault_rate_nonzero;
        ] );
      ( "soundness",
        [ QCheck_alcotest.to_alcotest ~long:true fault_stability_prop ] );
    ]
