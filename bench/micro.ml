(* Bechamel micro-benchmarks for the core components: HCL parsing,
   graph construction, check evaluation, deployment simulation, CSP
   solving, a full mining pass, and the daemon's request path. *)

open Bechamel
open Toolkit

module Generator = Zodiac_corpus.Generator
module Kb = Zodiac_kb.Kb
module Miner = Zodiac_mining.Miner
module Arm = Zodiac_cloud.Arm
module Graph = Zodiac_iac.Graph
module Program = Zodiac_iac.Program
module Eval = Zodiac_spec.Eval
module Csp = Zodiac_solver.Csp
module Value = Zodiac_iac.Value
module Mutation = Zodiac_validation.Mutation

let provider = Zodiac_azure.Azure.provider

let quickstart_hcl = Zodiac.Registry.quickstart_vm

let sample_project =
  lazy
    (let projects = Generator.conforming ~provider ~seed:1 ~count:30 () in
     (* pick the largest program for a meaty graph *)
     List.fold_left
       (fun best p ->
         if Program.size p.Generator.program > Program.size best then p.Generator.program
         else best)
       (List.hd projects).Generator.program projects)

let sample_corpus =
  lazy
    (let projects = Generator.conforming ~provider ~seed:2 ~count:60 () in
     List.map (fun p -> p.Generator.program) projects)

let location_check =
  Eval.compile
    (Zodiac_spec.Spec_parser.parse_exn
       "let r1:NIC, r2:VPC in path(r1 -> r2) => r1.location == r2.location")

let test_hcl_parse =
  Test.make ~name:"hcl: parse+compile quickstart"
    (Staged.stage (fun () -> ignore (Zodiac.Registry.compile quickstart_hcl)))

let test_graph_build =
  let prog = Lazy.force sample_project in
  Test.make ~name:"graph: build resource graph"
    (Staged.stage (fun () -> ignore (Graph.build prog)))

let test_check_eval =
  let graph = Graph.build (Lazy.force sample_project) in
  Test.make ~name:"spec: evaluate inter-resource check"
    (Staged.stage (fun () ->
         ignore (Eval.holds ~defaults:(Arm.defaults provider) graph location_check)))

let test_deploy =
  let prog = Lazy.force sample_project in
  Test.make ~name:"cloud: simulate full deployment"
    (Staged.stage (fun () -> ignore (Arm.deploy ~provider prog)))

let test_solver =
  Test.make ~name:"solver: 8-queens-style CSP"
    (Staged.stage (fun () ->
         let p = Csp.create () in
         let n = 8 in
         let cols = List.init n (fun _ -> List.init n (fun i -> Value.Int i)) in
         let vars =
           List.mapi (fun i dom -> Csp.new_var p ~name:(string_of_int i) dom) cols
         in
         List.iteri
           (fun i x ->
             List.iteri
               (fun j y ->
                 if i < j then
                   Csp.add_hard p ~name:(Printf.sprintf "q%d%d" i j) [ x; y ]
                     (fun l ->
                       match (l x, l y) with
                       | Value.Int a, Value.Int b ->
                           a <> b && abs (a - b) <> j - i
                       | _ -> false))
               vars)
           vars;
         ignore (Csp.solve p)))

(* Shaped like [Mutation.negative]'s problems: a few prioritized target
   slots, original-value-first costs, a hard target-violation
   constraint, hard and soft checks over small slot scopes, and the
   same budget and good-enough bound. *)
let test_solver_mutation =
  let rng = Zodiac_util.Prng.create 7 in
  let nvars = 24 in
  let sizes = Array.init nvars (fun _ -> 2 + Zodiac_util.Prng.int rng 5) in
  let scope () =
    List.init (1 + Zodiac_util.Prng.int rng 3) (fun _ -> Zodiac_util.Prng.int rng nvars)
  in
  (* a check holds unless its scope takes a rare combination *)
  let check salt vars l = Hashtbl.hash (salt, List.map l vars) mod 5 <> 0 in
  let hard = List.init 12 (fun i -> (i, scope ())) in
  let soft = List.init 20 (fun i -> (100 + i, scope ())) in
  Test.make ~name:"solver: mutation-shaped Max-CSP"
    (Staged.stage (fun () ->
         let p = Csp.create () in
         let vars =
           Array.mapi
             (fun i size ->
               let var =
                 Csp.new_var p ~name:(string_of_int i) (List.init size (fun k -> Value.Int k))
               in
               Csp.set_value_cost p var (function
                 | Value.Int 0 -> 0
                 | Value.Int k -> 1 + min 3 k
                 | _ -> 2);
               if i < 3 then Csp.set_priority p var 0;
               var)
             sizes
         in
         let on scope = List.map (fun i -> vars.(i)) scope in
         let target = on [ 0; 1; 2 ] in
         Csp.add_hard p ~name:"target-violated" target (fun l ->
             List.exists (fun x -> l x <> Value.Int 0) target);
         List.iter
           (fun (salt, sc) -> Csp.add_hard p ~name:"hard" (on sc) (check salt (on sc)))
           hard;
         List.iter
           (fun (salt, sc) ->
             Csp.add_soft p ~name:"soft" ~weight:10 (on sc) (check salt (on sc)))
           soft;
         ignore (Csp.solve ~node_budget:6_000 ~good_enough:6 p)))

(* One predicate call of [Mutation.negative]'s encoding: the location
   check over the sample project with one slot moved off its original
   value, decided in slot form over the base graph and by writing the
   values into a copy, rebuilding the graph and evaluating that. Both
   sides regroup the solver's values per resource, as the predicate
   does on every call. *)
let test_mutation_predicate =
  let prog = Lazy.force sample_project in
  let check = Eval.check location_check in
  let values =
    List.mapi
      (fun i s -> (s, if i = 0 then Value.Str "zodiac-elsewhere" else Mutation.read_slot prog s))
      (Mutation.slots_of_check prog check)
  in
  if values = [] || not (Mutation.slot_form prog check (List.map (fun (s, v) -> (s, [ v ])) values))
  then failwith "micro: the sample project gives the location check no slot-form scope";
  let defaults = Arm.defaults provider and graph = Graph.build prog in
  let grouped () =
    List.fold_left
      (fun groups ((s : Mutation.slot), v) ->
        let rid = s.Mutation.rid and write = (s.Mutation.path, v) in
        match List.partition (fun (r, _) -> r = rid) groups with
        | [ (_, writes) ], rest -> (rid, writes @ [ write ]) :: rest
        | _ -> (rid, [ write ]) :: groups)
      [] values
  in
  Test.make_grouped ~name:"mutation: one predicate call"
    [
      Test.make ~name:"slot form"
        (Staged.stage (fun () ->
             ignore (Eval.holds_slots ~defaults graph location_check (grouped ()))));
      Test.make ~name:"write + build + holds"
        (Staged.stage (fun () ->
             let written =
               List.fold_left
                 (fun prog (rid, writes) ->
                   Program.update prog rid (fun r ->
                       List.fold_left (fun r (path, v) -> Zodiac_iac.Resource.set_path r path v) r writes))
                 prog (grouped ())
             in
             ignore (Eval.holds ~defaults (Graph.build written) location_check)));
    ]

let test_mining_pass =
  let corpus = Lazy.force sample_corpus in
  let kb = Kb.build ~provider ~projects:corpus () in
  Test.make ~name:"mining: full pass over 60 projects"
    (Staged.stage (fun () -> ignore (Miner.mine ~provider kb corpus)))

let test_kb_probe =
  (* the miner's hot path: tuple-keyed attr_info lookups plus O(1)
     observed-value probes (formerly a string-concat key and a list
     scan, both visible in this number) *)
  let corpus = Lazy.force sample_corpus in
  let kb = Kb.build ~provider ~projects:corpus () in
  let probes =
    List.concat_map
      (fun ty ->
        List.filter_map
          (fun (info : Kb.attr_info) ->
            match info.Kb.observed with
            | (v, _) :: _ -> Some (ty, info.Kb.attr, v)
            | [] -> None)
          (Kb.attrs_of_type kb ty))
      (Kb.types kb)
  in
  Test.make ~name:"kb: attr_info + observed-count probes"
    (Staged.stage (fun () ->
         List.iter
           (fun (rtype, attr, v) ->
             match Kb.attr_info kb ~rtype ~attr with
             | Some info ->
                 ignore (Hashtbl.find_opt info.Kb.observed_index v)
             | None -> ())
           probes))

(* The daemon's hot request sources: 64 generated programs rendered as
   HCL and salted with a first line, as zbench's serve streams are
   (about 2 KB each). *)
let serve_sources =
  lazy
    (Generator.generate ~provider ~violation_rate:0.2 ~seed:1 ~count:64 ()
    |> List.mapi (fun k (p : Generator.project) ->
           Printf.sprintf "# zbench %d\n%s" k
             (Zodiac_hcl.Compile.program_to_hcl
                ~type_name:provider.Zodiac_provider.Provider.to_terraform
                p.Generator.program)))

let test_detect_source =
  let src = List.hd (Lazy.force serve_sources) in
  Test.make ~name:"providers: detect_source on a serve source"
    (Staged.stage (fun () -> ignore (Zodiac_providers.Providers.detect_source src)))

let test_compile_serve_source =
  let src = List.hd (Lazy.force serve_sources) in
  let type_map = provider.Zodiac_provider.Provider.of_terraform in
  Test.make ~name:"hcl: lex+parse+compile a serve source"
    (Staged.stage (fun () -> ignore (Zodiac_hcl.Compile.compile_string ~type_map src)))

(* What a cold [scan_file] pays below the protocol: compile, line
   index, check evaluation and diagnosis, for 64 different sources. *)
let test_scan_cold =
  let sources = Lazy.force serve_sources in
  let checks = Zodiac_serve.Scan.ground_truth_entries provider in
  Test.make ~name:"scan: scan_source on 64 cold serve sources"
    (Staged.stage (fun () ->
         List.iter
           (fun src ->
             ignore (Zodiac_serve.Scan.scan_source ~provider ~checks ~file:"p.tf" src))
           sources))

(* A whole connection of 64 [scan_file] lines with inline sources, read
   from a file, every one a scan-cache hit: reading, parsing, cache
   lookup and the replies. No zbench layer metric covers the read. *)
let test_serve_hot () =
  let module Server = Zodiac_serve.Server in
  let module Json = Zodiac_util.Json in
  let session =
    match Zodiac_serve.Session.create Zodiac_serve.Session.default_config with
    | Ok s -> s
    | Error e -> failwith ("micro: session: " ^ e)
  in
  let requests = Filename.temp_file "zodiac-micro" ".req" in
  at_exit (fun () -> try Sys.remove requests with Sys_error _ -> ());
  Out_channel.with_open_bin requests (fun oc ->
      List.iteri
        (fun k src ->
          Printf.fprintf oc "%s\n"
            (Json.to_string
               (Json.Obj
                  [
                    ("id", Json.Int k);
                    ("method", Json.String "scan_file");
                    ( "params",
                      Json.Obj
                        [
                          ("path", Json.String (Printf.sprintf "zbench/p%d.tf" k));
                          ("source", Json.String src);
                        ] );
                  ])))
        (Lazy.force serve_sources));
  let null = open_out_bin Filename.null in
  let serve () =
    In_channel.with_open_bin requests (fun ic -> Server.serve_channels session ic null)
  in
  serve ();
  Test.make ~name:"serve: 64 hot scan_file lines from a file" (Staged.stage serve)

let benchmarks () =
  [
    test_hcl_parse; test_graph_build; test_check_eval; test_deploy; test_solver;
    test_solver_mutation; test_mutation_predicate; test_mining_pass; test_kb_probe;
    test_detect_source; test_compile_serve_source; test_scan_cold; test_serve_hot ();
  ]

let run () =
  print_endline (Zodiac_util.Tablefmt.section "Micro-benchmarks (Bechamel)");
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 100) () in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances test
      in
      let analyze =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
          (Instance.monotonic_clock) results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              Printf.printf "  %-42s %12.1f ns/run\n" name est
          | _ -> Printf.printf "  %-42s (no estimate)\n" name)
        analyze)
    (benchmarks ())
