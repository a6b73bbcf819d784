(* Tests for the validation engine: MDC pruning, positive test cases,
   solver-aided mutation, and the scheduling algorithm. *)

module Generator = Zodiac_corpus.Generator
module Kb = Zodiac_kb.Kb
module Miner = Zodiac_mining.Miner
module Mdc = Zodiac_validation.Mdc
module Testcase = Zodiac_validation.Testcase
module Mutation = Zodiac_validation.Mutation
module Scheduler = Zodiac_validation.Scheduler
module Arm = Zodiac_cloud.Arm
module Check = Zodiac_spec.Check
module Parser = Zodiac_spec.Spec_parser
module Eval = Zodiac_spec.Eval
module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Graph = Zodiac_iac.Graph

let provider = Zodiac_azure.Azure.provider
let projects = lazy (Generator.generate ~provider ~seed:55 ~count:400 ())

let corpus =
  lazy (List.map (fun p -> (p.Generator.pname, p.Generator.program)) (Lazy.force projects))

let kb =
  lazy
    (Kb.build ~provider
       ~projects:(Miner.materialize ~provider (List.map snd (Lazy.force corpus)))
       ())

let deploy prog = Arm.success (Arm.deploy ~provider prog)

let parse = Parser.parse_exn

(* ---------------- MDC ------------------------------------------------ *)

let test_mdc_prune_keeps_ancestors () =
  let vpc = Resource.make "VPC" "v" [ ("name", Value.Str "v") ] in
  let subnet =
    Resource.make "SUBNET" "s"
      [ ("name", Value.Str "s"); ("vpc_name", Value.reference "VPC" "v" "name");
        ("cidr", Value.Str "10.0.0.0/24") ]
  in
  let nic =
    Resource.make "NIC" "n"
      [ ("ip_config", Value.Block [ ("subnet_id", Value.reference "SUBNET" "s" "id") ]) ]
  in
  let unrelated = Resource.make "SA" "sa" [ ("name", Value.Str "x") ] in
  let prog = Program.of_resources [ vpc; subnet; nic; unrelated ] in
  let mdc = Mdc.prune prog ~keep:[ Resource.id nic ] in
  Alcotest.(check int) "nic + subnet + vpc" 3 (Program.size mdc);
  Alcotest.(check bool) "unrelated dropped" false (Program.mem mdc (Resource.id unrelated));
  Alcotest.(check bool) "ancestors kept" true (Program.mem mdc (Resource.id vpc))

let test_mdc_measure () =
  let prog =
    Program.of_resources
      [
        Resource.make "VPC" "v" [];
        Resource.make "MONITOR_DIAG" "d" [];
      ]
  in
  let sizes = Mdc.measure provider prog in
  Alcotest.(check int) "attended" 1 sizes.Mdc.attended;
  Alcotest.(check int) "unattended" 1 sizes.Mdc.unattended

let test_mdc_shrinks_corpus_programs () =
  (* on real projects, pruning to a single witness shrinks programs *)
  let check = parse "let r:SA in r.tier == 'Premium' => r.replica != 'GZRS'" in
  let tps = Testcase.find ~provider ~corpus:(Lazy.force corpus) (Eval.compile check) in
  Alcotest.(check bool) "found tps" true (tps <> []);
  List.iter
    (fun tp ->
      Alcotest.(check bool) "pruned <= original" true
        (Program.size tp.Testcase.program <= Program.size tp.Testcase.original))
    tps

(* ---------------- positive test cases -------------------------------- *)

let test_tp_witnesses_check () =
  let check =
    Eval.compile
      (parse
         "let r1:SUBNET, r2:VPC in conn(r1.vpc_name -> r2.name) => contain(r2.address_space, r1.cidr)")
  in
  match Testcase.find ~provider ~corpus:(Lazy.force corpus) check with
  | [] -> Alcotest.fail "no positive test case"
  | tp :: _ ->
      let g = Graph.build tp.Testcase.program in
      Alcotest.(check bool) "witnesses" true
        (Eval.first_witness ~defaults:(Arm.defaults provider) g check <> None);
      Alcotest.(check bool) "holds" true (Eval.holds ~defaults:(Arm.defaults provider) g check);
      Alcotest.(check bool) "deploys" true (deploy tp.Testcase.program)

let test_tp_none_for_alien_check () =
  let check = parse "let r:EXPRESS in r.bandwidth_in_mbps >= 50 => r.name != null" in
  Alcotest.(check (list unit)) "no instance" []
    (List.map (fun _ -> ()) (Testcase.find ~provider ~corpus:(Lazy.force corpus) (Eval.compile check)))

(* ---------------- mutation ------------------------------------------- *)

let mutate ?(hard = []) ?(soft = []) check =
  let check = Eval.compile check in
  match Testcase.find ~provider ~limit:1 ~corpus:(Lazy.force corpus) check with
  | [] -> None
  | tp :: _ ->
      Mutation.negative ~provider ~kb:(Lazy.force kb) ~donors:(Lazy.force corpus) ~target:check
        ~hard:(List.map Eval.compile hard) ~soft:(List.map Eval.compile soft) tp

let violated prog check =
  not (Eval.holds ~defaults:(Arm.defaults provider) (Graph.build prog) (Eval.compile check))

let test_mutation_violates_target () =
  let check = parse "let r:SA in r.tier == 'Premium' => r.replica != 'GZRS'" in
  match mutate check with
  | Some res ->
      Alcotest.(check bool) "target violated" true (violated res.Mutation.program check);
      Alcotest.(check bool) "few changes" true (res.Mutation.attr_changes <= 2);
      Alcotest.(check bool) "real rule: fails to deploy" false
        (deploy res.Mutation.program)
  | None -> Alcotest.fail "mutation failed"

let test_mutation_false_check_deploys () =
  (* a junk hypothesis: violating it deploys fine *)
  let check = parse "let r:SA in r.https_only == true => r.replica == 'LRS'" in
  match mutate check with
  | Some res ->
      Alcotest.(check bool) "violated" true (violated res.Mutation.program check);
      Alcotest.(check bool) "deploys anyway" true (deploy res.Mutation.program)
  | None -> Alcotest.fail "mutation failed"

let test_mutation_respects_hard () =
  (* violating the Premium/GZRS check while keeping "Premium => LRS or
     ZRS only"... impossible: UNSAT *)
  let target = parse "let r:SA in r.tier == 'Premium' => r.replica != 'GZRS'" in
  let hard = [ parse "let r:SA in r.tier == 'Premium' => r.replica == 'LRS'" ] in
  Alcotest.(check bool) "unsat under conflicting hard" true (mutate ~hard target = None)

let test_mutation_degree_addition () =
  let check = parse "let r:VM in r.sku == 'Standard_B2s' => indegree(r, NIC) <= 3" in
  match mutate check with
  | Some res ->
      Alcotest.(check bool) "violated" true (violated res.Mutation.program check);
      Alcotest.(check bool) "resources added" true (res.Mutation.topo_changes >= 1)
  | None -> Alcotest.fail "degree mutation failed"

let test_mutation_exclusivity_addition () =
  let check =
    parse
      "let r1:GW, r2:SUBNET in conn(r1.ip_config.subnet_id -> r2.id) => outdegree(r2, !GW) == 0"
  in
  match mutate check with
  | Some res ->
      Alcotest.(check bool) "violated" true (violated res.Mutation.program check);
      Alcotest.(check bool) "foreign resource attached" true
        (res.Mutation.topo_changes >= 1)
  | None -> Alcotest.fail "exclusivity mutation failed"

let test_mutation_reports_soft_violations () =
  let target = parse "let r:IP in r.sku == 'Standard' => r.allocation == 'Static'" in
  (* an equivalent formulation must be collaterally violated *)
  let twin = parse "let r:IP in r.allocation == 'Dynamic' => r.sku == 'Basic'" in
  match mutate ~soft:[ twin ] target with
  | Some res ->
      Alcotest.(check bool) "twin reported" true
        (List.mem twin.Check.cid res.Mutation.violated_soft)
  | None -> Alcotest.fail "mutation failed"

let test_mutation_ablation_more_violations () =
  (* without considering other checks, collateral damage grows *)
  let target = parse "let r:IP in r.sku == 'Standard' => r.allocation == 'Static'" in
  let others =
    [
      parse "let r:IP in r.allocation == 'Dynamic' => r.sku == 'Basic'";
      parse "let r:IP in r.sku_tier == 'Global' => r.sku == 'Standard'";
    ]
  in
  let with_encoding = mutate ~soft:others target in
  match with_encoding with
  | Some res ->
      Alcotest.(check bool) "bounded collateral" true
        (List.length res.Mutation.violated_soft <= 2)
  | None -> Alcotest.fail "mutation failed"

(* An indexed slot is bound to one element: writing rule[1].priority
   leaves the other rules alone. *)
let test_mutation_indexed_slot () =
  let rule name pri = Value.Block [ ("name", Value.Str name); ("priority", Value.Int pri) ] in
  let sg =
    Resource.make "SG" "sg" [ ("rule", Value.List [ rule "a" 100; rule "b" 200; rule "c" 300 ]) ]
  in
  let prog = Program.of_resources [ sg ] in
  let check = parse "let r:SG in r.rule[i].name != null => r.rule[i].priority >= 100" in
  let slots = Mutation.slots_of_check prog check in
  Alcotest.(check int) "one slot per element and endpoint" 6 (List.length slots);
  let slot =
    List.find
      (fun (s : Mutation.slot) ->
        Zodiac_iac.Path.to_string s.Mutation.path = "rule[1].priority")
      slots
  in
  Alcotest.(check bool) "reads element 1" true (Mutation.read_slot prog slot = Value.Int 200);
  let prog = Mutation.write_slot prog slot (Value.Int 7) in
  let priorities =
    match Program.find prog (Resource.id sg) with
    | Some r -> Resource.get_all r "rule.priority"
    | None -> []
  in
  Alcotest.(check bool) "writes only element 1" true
    (priorities = [ Value.Int 100; Value.Int 7; Value.Int 300 ])

(* ---------------- scheduler ------------------------------------------ *)

let test_scheduler_validates_and_falsifies () =
  let candidates =
    [
      (* real rules *)
      parse "let r:SA in r.tier == 'Premium' => r.replica != 'GZRS'";
      parse "let r:VM in r.priority == 'Spot' => r.evict_policy != null";
      parse
        "let r1:SUBNET, r2:SUBNET, r3:VPC in coconn(r1.vpc_name -> r3.name, r2.vpc_name -> r3.name) => !overlap(r1.cidr, r2.cidr)";
      (* junk hypotheses *)
      parse "let r:SA in r.https_only == true => r.replica == 'LRS'";
      parse "let r:VM in r.os_disk.caching == 'ReadWrite' => r.priority == 'Regular'";
    ]
  in
  let result =
    Scheduler.run ~provider ~kb:(Lazy.force kb) ~corpus:(Lazy.force corpus) ~deploy candidates
  in
  let validated_cids = List.map (fun (c : Check.t) -> c.Check.cid) result.Scheduler.validated in
  let falsified_cids = List.map (fun ((c : Check.t), _) -> c.Check.cid) result.Scheduler.falsified in
  List.iteri
    (fun i (c : Check.t) ->
      if i < 3 then
        Alcotest.(check bool)
          (Printf.sprintf "real rule %d validated" i)
          true
          (List.mem c.Check.cid validated_cids)
      else
        Alcotest.(check bool)
          (Printf.sprintf "junk %d falsified" i)
          true
          (List.mem c.Check.cid falsified_cids))
    candidates;
  Alcotest.(check bool) "deployments happened" true (result.Scheduler.deployments > 0);
  Alcotest.(check bool) "iterations recorded" true (result.Scheduler.iterations <> [])

let test_scheduler_indistinguishable_group () =
  (* two logically-equivalent IP checks can only be validated together *)
  let pair =
    [
      parse "let r:IP in r.sku == 'Standard' => r.allocation == 'Static'";
      parse "let r:IP in r.allocation == 'Dynamic' => r.sku == 'Basic'";
    ]
  in
  let result =
    Scheduler.run ~provider ~kb:(Lazy.force kb) ~corpus:(Lazy.force corpus) ~deploy pair
  in
  Alcotest.(check int) "both validated" 2 (List.length result.Scheduler.validated);
  let grouped =
    List.exists (fun it -> it.Scheduler.tp_group > 0) result.Scheduler.iterations
  in
  Alcotest.(check bool) "validated via group handling" true grouped

let test_scheduler_stalls_without_indistinct () =
  let pair =
    [
      parse "let r:IP in r.sku == 'Standard' => r.allocation == 'Static'";
      parse "let r:IP in r.allocation == 'Dynamic' => r.sku == 'Basic'";
    ]
  in
  let config = { Scheduler.default_config with Scheduler.handle_indistinct = false } in
  let result =
    Scheduler.run ~config ~provider ~kb:(Lazy.force kb) ~corpus:(Lazy.force corpus) ~deploy pair
  in
  Alcotest.(check int) "nothing validated" 0 (List.length result.Scheduler.validated);
  Alcotest.(check bool) "stalled" true
    (List.exists
       (fun (_, verdict) -> verdict = Scheduler.Falsified `Stalled)
       result.Scheduler.falsified)

(* the §5.6 data-scarcity FP: source_image_ref "required" unless the
   rare create=Attach appears in the corpus as a counterexample *)
let fp_5_6 = lazy (parse "let r:VM, v:VPC in path(r -> v) => r.source_image_ref != null")
let real_sa = lazy (parse "let r:SA in r.tier == 'Premium' => r.replica != 'GZRS'")

(* need a corpus large enough to contain an Attach VM *)
let big =
  lazy
    (List.map
       (fun p -> (p.Generator.pname, p.Generator.program))
       (Generator.conforming ~provider ~seed:88 ~count:1500 ()))

let test_counterexample_pass () =
  let fp = Lazy.force fp_5_6 and real = Lazy.force real_sa in
  let kept, exposed =
    Scheduler.counterexample_pass ~provider ~corpus:(Lazy.force big) ~deploy [ fp; real ]
  in
  Alcotest.(check bool) "real kept" true
    (List.exists (fun (c : Check.t) -> c.Check.cid = real.Check.cid) kept);
  Alcotest.(check bool) "fp exposed" true
    (List.exists (fun (c : Check.t) -> c.Check.cid = fp.Check.cid) exposed)

(* Naive reference for [counterexample_pass]: a graph built for every
   corpus program, no type filter, in corpus order. *)
let naive_counterexample_pass ~corpus checks =
  let defaults = Arm.defaults provider in
  let exposes c (_, prog) =
    let c = Eval.compile c in
    match Eval.violations ~defaults (Graph.build prog) c with
    | [] -> false
    | violation :: _ ->
        let mdc = Mdc.prune prog ~keep:(List.map snd violation) in
        (not (Eval.holds ~defaults (Graph.build mdc) c)) && deploy mdc
  in
  List.partition (fun c -> not (List.exists (exposes c) corpus)) checks

let test_counterexample_matches_reference () =
  let alien = parse "let r:NO_SUCH_TYPE in r.tier == 'Premium' => r.replica != 'GZRS'" in
  let checks = [ Lazy.force fp_5_6; Lazy.force real_sa; alien ] in
  let corpus = Lazy.force big in
  let cids (kept, exposed) =
    let ids = List.map (fun (c : Check.t) -> c.Check.cid) in
    (ids kept, ids exposed)
  in
  Alcotest.(check (pair (list string) (list string)))
    "same (kept, exposed)"
    (cids (naive_counterexample_pass ~corpus checks))
    (cids (Scheduler.counterexample_pass ~jobs:2 ~provider ~corpus ~deploy checks))

let () =
  Alcotest.run "validation"
    [
      ( "mdc",
        [
          Alcotest.test_case "keeps ancestors" `Quick test_mdc_prune_keeps_ancestors;
          Alcotest.test_case "measure" `Quick test_mdc_measure;
          Alcotest.test_case "shrinks corpus programs" `Slow test_mdc_shrinks_corpus_programs;
        ] );
      ( "testcase",
        [
          Alcotest.test_case "witnesses" `Slow test_tp_witnesses_check;
          Alcotest.test_case "alien check" `Slow test_tp_none_for_alien_check;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "indexed slot" `Quick test_mutation_indexed_slot;
          Alcotest.test_case "violates target" `Slow test_mutation_violates_target;
          Alcotest.test_case "false check deploys" `Slow test_mutation_false_check_deploys;
          Alcotest.test_case "respects hard" `Slow test_mutation_respects_hard;
          Alcotest.test_case "degree additions" `Slow test_mutation_degree_addition;
          Alcotest.test_case "exclusivity additions" `Slow test_mutation_exclusivity_addition;
          Alcotest.test_case "soft violations reported" `Slow test_mutation_reports_soft_violations;
          Alcotest.test_case "collateral bounded" `Slow test_mutation_ablation_more_violations;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "validates and falsifies" `Slow test_scheduler_validates_and_falsifies;
          Alcotest.test_case "indistinguishable groups" `Slow test_scheduler_indistinguishable_group;
          Alcotest.test_case "stalls without O3" `Slow test_scheduler_stalls_without_indistinct;
          Alcotest.test_case "counterexample pass" `Slow test_counterexample_pass;
          Alcotest.test_case "counterexample matches reference" `Slow
            test_counterexample_matches_reference;
        ] );
    ]
