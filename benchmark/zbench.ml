(* zbench — the Zodiac benchmark.

     zbench run     [--workload W]... [--seed S] [--seconds T] [--runs N] [--out F.json]
     zbench trace   [--workload W]... [--seed S]
     zbench compare A.json B.json

   [run] measures the end-to-end metrics of each workload through the
   real zodiac binary, tracing off, and checks its outputs; [trace]
   runs the in-process traced pass for the per-layer metrics; [compare]
   applies BENCHMARK.json's bounds to two result sets. [run --json]
   ends with the one-line JSON result that automated runs read. *)

open Cmdliner
module W = Zbench_lib.Workloads
module R = Zbench_lib.Results
module Stats = Zbench_lib.Stats

(* Run from the root of the checkout: the definition is read from
   there, and the binary under test is the one dune built beside this
   executable (_build/default/bin/ next to _build/default/benchmark/). *)
let benchmark = "BENCHMARK.json"

let zodiac =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/zodiac_cli.exe"

let workload_arg =
  Arg.(
    value & opt_all string []
    & info [ "workload" ] ~docv:"W" ~doc:"Workload to run (repeatable; default: all of them).")

let seed_arg =
  Arg.(
    value
    & opt int W.default_seed
    & info [ "seed" ] ~docv:"S"
        ~doc:"Seed the inputs are generated from. The default seed's outputs are pinned.")

let seconds_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "seconds" ] ~docv:"T"
        ~doc:
          "Run length (default: BENCHMARK.json run_seconds). It fixes a run's work, processes or \
           requests, at about $(docv) seconds' worth on the seed commit, so both sides of a \
           comparison do the same work.")

let runs_arg =
  Arg.(
    value & opt int 1
    & info [ "runs" ] ~docv:"N" ~doc:"Runs per workload, with seeds S, S+1, …, S+N-1.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"F.json" ~doc:"Append every run to the result set in $(docv).")

let smoke_arg =
  Arg.(value & flag & info [ "smoke" ] ~doc:"Toy sizes: a quick end-to-end check of the benchmark itself.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"End with one JSON line {correct, attempted, failed, metrics} (one workload, one run).")

let print_run (r : W.run) =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%s %s %.6g %s\n" r.W.workload name v unit)
    r.W.metrics;
  List.iter (fun (k, v) -> Printf.printf "# %s %s: %s\n" r.W.workload k v) r.W.notes;
  List.iter (fun p -> Printf.printf "# %s FAILED: %s\n" r.W.workload p) r.W.problems;
  flush stdout

let measure ~workloads ~seed ~seconds ~runs ~trace ~out ~smoke ~json =
  let def = R.definition benchmark in
  let sizes = if smoke then W.smoke else W.full in
  let seconds = Option.value seconds ~default:(float_of_int def.R.run_seconds) in
  let workloads = if workloads = [] then def.R.workloads else workloads in
  List.iter
    (fun w ->
      if not (List.mem w def.R.workloads) then begin
        Printf.eprintf "zbench: unknown workload %s (known: %s)\n" w (String.concat ", " def.R.workloads);
        exit 2
      end)
    workloads;
  if json && (List.length workloads <> 1 || runs <> 1) then begin
    prerr_endline "zbench: --json needs exactly one workload and one run";
    exit 2
  end;
  if not (Sys.file_exists zodiac) then begin
    Printf.eprintf "zbench: no zodiac binary at %s (dune build ./bin/zodiac_cli.exe)\n" zodiac;
    exit 2
  end;
  let defs = if trace then def.R.per_layer else def.R.end_to_end in
  let results =
    List.concat_map
      (fun workload ->
        List.init runs (fun i ->
            let seed = seed + i in
            let r =
              if trace then Zbench_lib.Layers.run ~zodiac ~sizes ~seed workload
              else W.run ~zodiac ~sizes ~seed ~seconds workload
            in
            let r = R.conform defs r in
            print_run r;
            r))
      workloads
  in
  Option.iter
    (fun path -> R.append path ~env:(R.env ~seed) (List.map (R.run_json ~trace) results))
    out;
  if json then print_endline (R.result_line (List.hd results));
  if not (List.for_all W.correct results) then exit 1

let measure_term trace =
  let f trace workloads seed seconds runs out smoke json =
    measure ~workloads ~seed ~seconds ~runs ~trace ~out ~smoke ~json
  in
  Term.(
    const f $ trace $ workload_arg $ seed_arg $ seconds_arg $ runs_arg $ out_arg $ smoke_arg
    $ json_arg)

let run_cmd =
  (* --trace 0|1 selects the traced pass; run.sh passes it through *)
  let trace_arg =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~docv:"0|1" ~doc:"1: run the traced pass (per-layer metrics) instead.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Measure the end-to-end metrics of each workload and check its outputs.")
    (measure_term trace_arg)

let trace_cmd =
  Cmd.v
    (Cmd.info "trace" ~doc:"Run the traced in-process pass and print every per-layer metric.")
    (measure_term (Term.const true))

(* ---- compare ---- *)

let compare a b =
  let def = R.definition benchmark in
  let sa = R.samples (R.load a) and sb = R.samples (R.load b) in
  let regressions = ref 0 and unresolved = ref 0 in
  Printf.printf "%-12s %-15s %-32s %-32s %8s  %s\n" "workload" "metric" ("A " ^ Filename.basename a)
    ("B " ^ Filename.basename b) "change" "verdict";
  let side xs =
    let q1, q3 = Stats.quartiles xs in
    Printf.sprintf "%.5g [%.5g, %.5g] n=%d" (Stats.median xs) q1 q3 (List.length xs)
  in
  List.iter
    (fun workload ->
      List.iter
        (fun (d : R.metric_def) ->
          match (List.assoc_opt (workload, d.R.name) sa, List.assoc_opt (workload, d.R.name) sb) with
          | Some xa, Some xb ->
              let bound = Option.value d.R.bound ~default:0. in
              let verdict, worse =
                match Stats.compare_runs ~better:d.R.better ~bound xa xb with
                | Stats.Within w -> ("ok", w)
                | Stats.Regression w ->
                    incr regressions;
                    ("REGRESSION", w)
                | Stats.Unresolved w ->
                    incr unresolved;
                    ("unresolved", w)
              in
              Printf.printf "%-12s %-15s %-32s %-32s %+7.1f%%  %s (bound %.0f%%)\n" workload d.R.name
                (side xa) (side xb) (100. *. worse) verdict (100. *. bound)
          | _ -> Printf.printf "%-12s %-15s missing from a side\n" workload d.R.name)
        def.R.end_to_end)
    def.R.workloads;
  List.iter
    (fun (label, path) ->
      Printf.printf "%s: %s\n" label (Zodiac_util.Json.to_string (Zodiac_util.Json.member "env" (R.load path))))
    [ ("A", a); ("B", b) ];
  Printf.printf "%d regression(s), %d unresolved\n" !regressions !unresolved;
  if !regressions > 0 then exit 1

let compare_cmd =
  let file n = Arg.(required & pos n (some file) None & info [] ~docv:(if n = 0 then "A.json" else "B.json")) in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Median and quartiles of each end-to-end metric per workload on both sides, judged against \
          BENCHMARK.json's bounds: REGRESSION when B is worse than A by more than the bound, \
          unresolved when a side's quartile spread exceeds it.")
    Term.(const compare $ file 0 $ file 1)

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "zbench" ~doc:"Benchmark the zodiac CLI and daemon end to end and per layer")
          [ run_cmd; trace_cmd; compare_cmd ]))
