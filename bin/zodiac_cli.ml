(* The zodiac command-line tool.

   Subcommands:
     zodiac mine      — run the mining phase and print the funnel + checks
     zodiac validate  — run the full pipeline (mining + validation)
     zodiac scan FILE — check an HCL file against the ground-truth ruleset
     zodiac deploy FILE — simulate deployment of an HCL file
     zodiac plan FILE — compile an HCL file to Terraform-style plan JSON
     zodiac graph FILE — resource graph in Graphviz DOT
     zodiac corpus    — generate a synthetic corpus and print statistics
     zodiac rules     — list the simulated cloud's ground-truth rules
     zodiac export    — render validated checks as insights / RAG KB / policies
     zodiac serve     — resident check-as-a-service daemon (JSON-line protocol) *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable verbose logging.")

(* --provider azure|aws: unknown names are a usage error (clean exit,
   no backtrace), listing what the binary actually links. *)
let provider_conv =
  let parse s =
    match Zodiac_providers.Providers.find s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown provider %S (expected one of: %s)" s
                (String.concat ", " Zodiac_providers.Providers.names)))
  in
  let print ppf (p : Zodiac_provider.Provider.t) =
    Format.pp_print_string ppf p.Zodiac_provider.Provider.name
  in
  Arg.conv (parse, print)

let provider_arg =
  Arg.(
    value
    & opt provider_conv Zodiac_providers.Providers.default
    & info [ "provider" ] ~docv:"PROVIDER"
        ~doc:
          "Cloud backend to run against (its schemas, corpus scenarios, \
           ground-truth rules and documentation tables): azure (default) \
           or aws.")

let seed_arg =
  Arg.(
    value
    & opt int 20240704
    & info [ "seed" ] ~docv:"SEED" ~doc:"Corpus generation seed.")

let size_arg default =
  Arg.(
    value
    & opt int default
    & info [ "projects" ] ~docv:"N" ~doc:"Number of synthetic projects.")

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains used for the parallel phases (corpus generation, KB \
           build, mining, validation batches). 0 means the recommended \
           domain count. Results are bit-identical for every value.")

let resolve_jobs jobs =
  if jobs <= 0 then Zodiac_util.Parallel.recommended_jobs () else jobs

let cache_dir_arg =
  Arg.(
    value
    & opt string Zodiac_util.Cache.default_dir
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Warm-start cache directory. Cold runs write knowledge-base and \
           mined-candidate artifacts there (and, with --shard-size, one \
           checkpoint per shard); warm runs with the same parameters load \
           them (byte-identical results).")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Disable the warm-start cache: always rebuild from scratch.")

(* --cache-dir DIR + --no-cache combined into the config's cache_dir *)
let cache_term =
  Term.(
    const (fun dir no_cache -> if no_cache then None else Some dir)
    $ cache_dir_arg $ no_cache_arg)

let config_of ?(fault_rate = 0.0) ?(fault_seed = 7) ?(jobs = 0) ?cache_dir
    ~provider seed size =
  let engine =
    if fault_rate > 0.0 then
      Zodiac_engine.Engine.faulty_config ~fault_rate ~seed:fault_seed ()
    else Zodiac_engine.Engine.default_config
  in
  {
    Zodiac.Pipeline.default_config with
    Zodiac.Pipeline.provider;
    corpus_seed = seed;
    corpus_size = size;
    jobs = resolve_jobs jobs;
    cache_dir;
    engine;
  }

let fault_rate_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "fault-rate" ] ~docv:"P"
        ~doc:
          "Inject transient cloud faults (throttling, timeouts, polling \
           flakes, quota races) with per-call probability $(docv); the \
           resilient engine retries them away.")

let fault_seed_arg =
  Arg.(
    value
    & opt int 7
    & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Fault-injection seed.")

(* ---- telemetry / tracing -------------------------------------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a machine-readable JSON trace to $(docv): one span per \
           pipeline stage with cache hit/miss, deployment/retry and \
           parallel chunk counters, plus wall-clock timings. Timings live \
           only in the trace — pipeline artifacts and cache entries never \
           contain wall-clock values.")

(* Without [--trace] the recorder is clockless (purely deterministic);
   with it, spans also measure wall time for the trace file. Either way
   the report gets a per-stage table. *)
let telemetry_of trace =
  match trace with
  | None -> Zodiac_util.Telemetry.create ()
  | Some _ -> Zodiac_util.Telemetry.create ~clock:Unix.gettimeofday ()

let write_trace trace telemetry =
  match trace with
  | None -> ()
  | Some path -> (
      let json =
        Zodiac_util.Json.to_string ~pretty:true
          (Zodiac_util.Telemetry.to_json telemetry)
      in
      match open_out path with
      | exception Sys_error e ->
          prerr_endline ("error writing trace: " ^ e);
          exit 2
      | oc ->
          output_string oc json;
          output_char oc '\n';
          close_out oc)

(* ---- mine ----------------------------------------------------------- *)

let shard_size_arg =
  Arg.(
    value
    & opt int 0
    & info [ "shard-size" ] ~docv:"N"
        ~doc:
          "Stream the corpus in shards of $(docv) projects instead of \
           materializing it whole: bounded memory for very large \
           --projects counts, with each completed shard checkpointed \
           through the warm-start cache so a killed run resumes. 0 \
           (default) mines the corpus in memory as a single shard. \
           Results are byte-identical for every value.")

let workers_arg =
  Arg.(
    value
    & opt int 1
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Fork $(docv) worker processes that mine disjoint shards of the \
           corpus in parallel into the shared --cache-dir, claiming shards \
           dynamically through atomic claim files (work stealing, crash \
           tolerance: a killed worker's claims expire and survivors re-mine \
           only its unfinished shards). Requires --shard-size and the \
           cache. The parent merges the per-shard checkpoints; artifacts \
           are byte-identical to --workers 1 for every (workers, jobs, \
           shard-size) combination.")

let stale_after_arg =
  Arg.(
    value
    & opt float 300.0
    & info [ "stale-after" ] ~docv:"SECONDS"
        ~doc:
          "Treat another worker's shard claim as abandoned once it is older \
           than $(docv) seconds and take it over. Must exceed the worst \
           single-shard mining time, or live workers steal each other's \
           shards (harmless — work is duplicated, results unchanged).")

(* Per-shard progress for long multi-worker runs: tty-only (stderr), so
   redirected/test runs keep byte-stable output. Elapsed and peak RSS
   are render-time probes — they never enter artifacts or telemetry. *)
let progress_of () =
  if not (Unix.isatty Unix.stderr) then None
  else
    let start = Unix.gettimeofday () in
    Some
      (fun ~pass ~index ~shards ~built ->
        let rss =
          match Zodiac_util.Rss.peak_rss_kb () with
          | None -> ""
          | Some kb ->
              Printf.sprintf ", peak RSS %.1f MB" (float_of_int kb /. 1024.)
        in
        Printf.eprintf "mine[%s]: shard %d/%d %s (%.1fs elapsed%s)\n%!" pass
          (index + 1) shards
          (if built then "built" else "resumed")
          (Unix.gettimeofday () -. start)
          rss)

let mine_cmd =
  let run verbose provider seed size jobs cache trace limit shard_size workers
      stale_after =
    setup_logs verbose;
    let telemetry = telemetry_of trace in
    let config = config_of ~jobs ?cache_dir:cache ~provider seed size in
    if workers > 1 && (shard_size <= 0 || Option.is_none cache) then begin
      prerr_endline
        "zodiac: --workers N requires --shard-size and an enabled cache \
         (shard claims and checkpoints live in --cache-dir)";
      exit 2
    end;
    if shard_size > 0 then begin
      (* Workers re-exec this binary in the hidden worker mode with the
         exact mining parameters; only coordination knobs (stale-after)
         travel separately, so a worker's shard bytes are the parent's
         by construction. *)
      let worker_command pass =
        [|
          Sys.executable_name;
          "mine-worker";
          "--pass";
          pass;
          "--provider";
          provider.Zodiac_provider.Provider.name;
          "--seed";
          string_of_int seed;
          "--projects";
          string_of_int size;
          "--jobs";
          string_of_int config.Zodiac.Pipeline.jobs;
          "--shard-size";
          string_of_int shard_size;
          "--cache-dir";
          Option.get cache;
          "--stale-after";
          Printf.sprintf "%.6f" stale_after;
        |]
      in
      let streamed =
        Zodiac.Pipeline.mine_streamed ~config ~telemetry ~workers
          ~worker_command ?progress:(progress_of ()) ~shard_size ()
      in
      write_trace trace telemetry;
      print_endline (Zodiac.Report.streamed_summary streamed);
      print_endline "";
      print_endline "Top candidates by support:";
      print_endline
        (Zodiac.Report.checks_listing ~limit
           streamed.Zodiac.Pipeline.s_candidates)
    end
    else begin
      let artifacts = Zodiac.Pipeline.mine_only ~config ~telemetry () in
      write_trace trace telemetry;
      print_endline (Zodiac.Report.mining_summary artifacts);
      print_endline (Zodiac.Report.stats_section ~telemetry artifacts);
      print_endline "";
      print_endline "Top candidates by support:";
      print_endline
        (Zodiac.Report.checks_listing ~limit artifacts.Zodiac.Pipeline.candidates)
    end
  in
  let limit =
    Arg.(value & opt int 25 & info [ "limit" ] ~docv:"N" ~doc:"Checks to list.")
  in
  Cmd.v
    (Cmd.info "mine" ~doc:"Mine hypothesized semantic checks from a corpus")
    Term.(
      const run $ verbose_arg $ provider_arg $ seed_arg $ size_arg 800
      $ jobs_arg $ cache_term $ trace_arg $ limit $ shard_size_arg
      $ workers_arg $ stale_after_arg)

(* ---- mine-worker (hidden) ------------------------------------------- *)

(* The re-exec target behind [mine --workers N]: claim and checkpoint
   shards of one pass into the shared cache dir, print one summary
   line, exit. Never invoked by hand — the parent constructs the argv. *)
let mine_worker_cmd =
  let run verbose provider seed size jobs cache shard_size pass stale_after =
    setup_logs verbose;
    match cache with
    | None ->
        prerr_endline "zodiac: mine-worker requires --cache-dir";
        exit 2
    | Some _ -> (
        let config = config_of ~jobs ?cache_dir:cache ~provider seed size in
        let pass = if String.equal pass "kb" then `Kb else `Mine in
        match
          Zodiac.Pipeline.mine_worker ~config ~stale_after ~shard_size ~pass ()
        with
        | outcome -> print_endline (Zodiac.Pipeline.worker_summary outcome)
        | exception Invalid_argument msg ->
            prerr_endline ("zodiac: " ^ msg);
            exit 2)
  in
  let pass_arg =
    Arg.(
      value
      & opt (enum [ ("kb", "kb"); ("mine", "mine") ]) "kb"
      & info [ "pass" ] ~docv:"PASS"
          ~doc:"Which streamed pass to checkpoint shards for (kb or mine).")
  in
  Cmd.v
    (Cmd.info "mine-worker"
       ~doc:
         "(internal) Shard worker for $(b,mine --workers): claims and \
          checkpoints shards into the shared cache, then exits. Spawned by \
          the parent mine process; not intended for direct use.")
    Term.(
      const run $ verbose_arg $ provider_arg $ seed_arg $ size_arg 800
      $ jobs_arg $ cache_term $ shard_size_arg $ pass_arg $ stale_after_arg)

(* ---- validate ------------------------------------------------------- *)

let validate_cmd =
  let run verbose provider seed size jobs cache trace output fault_rate
      fault_seed =
    setup_logs verbose;
    let telemetry = telemetry_of trace in
    let artifacts =
      Zodiac.Pipeline.run
        ~config:
          (config_of ~fault_rate ~fault_seed ~jobs ?cache_dir:cache ~provider
             seed size)
        ~telemetry ()
    in
    write_trace trace telemetry;
    print_endline (Zodiac.Report.full ~telemetry artifacts);
    match output with
    | None -> ()
    | Some path -> (
        match
          Zodiac.Checkset.save path artifacts.Zodiac.Pipeline.final_checks
        with
        | Error e ->
            prerr_endline ("error writing checks: " ^ e);
            exit 2
        | Ok () ->
            Printf.printf "\nwrote %d validated checks to %s\n"
              (List.length artifacts.Zodiac.Pipeline.final_checks)
              path)
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the validated check set to FILE (JSON).")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Run the full pipeline: mine, filter, interpolate, validate")
    Term.(
      const run $ verbose_arg $ provider_arg $ seed_arg $ size_arg 600
      $ jobs_arg $ cache_term $ trace_arg $ output $ fault_rate_arg
      $ fault_seed_arg)

(* ---- scan ----------------------------------------------------------- *)

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"A Terraform (HCL) configuration file.")

let load_hcl ?provider path =
  match Zodiac.Registry.compile_file ?provider path with
  | Ok prog -> prog
  | Error e ->
      prerr_endline ("error: " ^ e);
      exit 2

let load_scan_checks provider checks_file =
  match Zodiac_serve.Scan.load_checks provider checks_file with
  | Ok checks -> checks
  | Error e ->
      prerr_endline ("error loading checks: " ^ e);
      exit 2

(* Exit codes are CI currency: 0 = clean, 1 = findings, 2 = error.
   [--exit-zero] collapses 1 into 0 for advisory runs. *)
let scan_exit ~exit_zero findings =
  if findings <> [] && not exit_zero then exit 1

let render_scan_text findings =
  if findings = [] then print_endline "no semantic check violations found"
  else begin
    Printf.printf "%d semantic check violation(s):\n" (List.length findings);
    List.iter
      (fun (f : Zodiac_serve.Sarif.finding) ->
        Printf.printf "  [%s] %s\n    where %s\n    because %s\n"
          f.Zodiac_serve.Sarif.rule_id f.Zodiac_serve.Sarif.message
          (String.concat ", "
             (List.map
                (fun (var, id) -> Printf.sprintf "%s = %s" var id)
                f.Zodiac_serve.Sarif.bindings))
          f.Zodiac_serve.Sarif.explanation)
      findings
  end

let scan_cmd =
  let run verbose provider path checks_file format timestamps exit_zero =
    setup_logs verbose;
    (* shared with the daemon's scan_file: same findings, same SARIF
       bytes (the smoke gate holds us to that) *)
    let checks = load_scan_checks provider checks_file in
    match Zodiac_serve.Scan.scan_file ~provider ~checks path with
    | Error e ->
        prerr_endline ("error: " ^ e);
        exit 2
    | Ok findings -> (
        match format with
        | "text" ->
            render_scan_text findings;
            scan_exit ~exit_zero findings
        | "sarif" ->
            let timestamp =
              if timestamps then Some (Zodiac_serve.Session.utc_now ())
              else None
            in
            print_string (Zodiac_serve.Sarif.to_string ?timestamp findings);
            scan_exit ~exit_zero findings
        | other ->
            prerr_endline ("unknown format: " ^ other);
            exit 2)
  in
  let checks_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "checks" ] ~docv:"FILE"
          ~doc:"Lint against a validated check set saved by 'zodiac validate -o'.")
  in
  let format =
    Arg.(
      value
      & opt string "text"
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: text (human), sarif (SARIF 2.1.0 JSON, \
             byte-identical to the daemon's scan_file result).")
  in
  let timestamps =
    Arg.(
      value & flag
      & info [ "timestamps" ]
          ~doc:
            "Stamp SARIF output with the wall-clock UTC end time. Off by \
             default so output is byte-stable.")
  in
  let exit_zero =
    Arg.(
      value & flag
      & info [ "exit-zero" ]
          ~doc:
            "Exit 0 even when violations are found (default: findings exit \
             1, errors exit 2).")
  in
  Cmd.v
    (Cmd.info "scan" ~doc:"Scan an HCL file for semantic check violations")
    Term.(
      const run $ verbose_arg $ provider_arg $ file_arg $ checks_file $ format
      $ timestamps $ exit_zero)

(* ---- deploy --------------------------------------------------------- *)

let deploy_cmd =
  let run verbose provider path fault_rate fault_seed trace =
    setup_logs verbose;
    let module Engine = Zodiac_engine.Engine in
    let telemetry = telemetry_of trace in
    let module Telemetry = Zodiac_util.Telemetry in
    let prog =
      Telemetry.with_span telemetry "compile" (fun () ->
          load_hcl ~provider path)
    in
    let engine_config =
      if fault_rate > 0.0 then
        Engine.faulty_config ~fault_rate ~seed:fault_seed ()
      else Engine.default_config
    in
    let engine = Engine.create ~provider ~config:engine_config () in
    (* one span per engine deployment, mirroring the pipeline's
       engine.* counters so daemon and one-shot traces line up *)
    let record_engine_counters () =
      let s = Engine.stats engine in
      Telemetry.count telemetry "engine.requests" s.Zodiac_engine.Stats.requests;
      Telemetry.count telemetry "engine.attempts" s.Zodiac_engine.Stats.attempts;
      Telemetry.count telemetry "engine.retries" s.Zodiac_engine.Stats.retries;
      Telemetry.count telemetry "engine.faults" s.Zodiac_engine.Stats.faults
    in
    let outcome =
      match
        Telemetry.with_span telemetry "deploy" (fun () ->
            let r = Engine.deploy engine prog in
            record_engine_counters ();
            r)
      with
      | Ok outcome -> outcome
      | Error e ->
          write_trace trace telemetry;
          prerr_endline
            ("deployment abandoned: " ^ Zodiac_engine.Client.error_to_string e);
          print_endline (Zodiac_engine.Stats.summary (Engine.stats engine));
          exit 1
    in
    write_trace trace telemetry;
    List.iter
      (fun id ->
        Printf.printf "created  %s\n" (Zodiac_iac.Resource.id_to_string id))
      outcome.Zodiac_cloud.Arm.deployed;
    (match outcome.Zodiac_cloud.Arm.failure with
    | None -> ()
    | Some f ->
        Printf.printf "FAILED   %s [%s phase] %s\n"
          (Zodiac_iac.Resource.id_to_string f.Zodiac_cloud.Arm.resource)
          (Zodiac_provider.Provider.phase_to_string f.Zodiac_cloud.Arm.phase)
          f.Zodiac_cloud.Arm.message;
        List.iter
          (fun id ->
            Printf.printf "halted   %s\n" (Zodiac_iac.Resource.id_to_string id))
          outcome.Zodiac_cloud.Arm.halted);
    List.iter
      (fun (f : Zodiac_cloud.Arm.failure) ->
        Printf.printf "post-sync inconsistency: %s (%s)\n"
          f.Zodiac_cloud.Arm.message
          (Zodiac_iac.Resource.id_to_string f.Zodiac_cloud.Arm.resource))
      outcome.Zodiac_cloud.Arm.post_sync_issues;
    if fault_rate > 0.0 || verbose then
      print_endline (Zodiac_engine.Stats.summary (Engine.stats engine));
    if not (Zodiac_cloud.Arm.success outcome) then exit 1
    else print_endline "deployment succeeded"
  in
  Cmd.v
    (Cmd.info "deploy" ~doc:"Simulate a cloud deployment of an HCL file")
    Term.(
      const run $ verbose_arg $ provider_arg $ file_arg $ fault_rate_arg
      $ fault_seed_arg $ trace_arg)

(* ---- graph ---------------------------------------------------------- *)

let graph_cmd =
  let run verbose provider path =
    setup_logs verbose;
    let prog = load_hcl ~provider path in
    print_string (Zodiac_iac.Graph.to_dot (Zodiac_iac.Graph.build prog))
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:"Print the resource graph of an HCL file in Graphviz DOT format")
    Term.(const run $ verbose_arg $ provider_arg $ file_arg)

(* ---- plan ----------------------------------------------------------- *)

let plan_cmd =
  let run verbose provider path =
    setup_logs verbose;
    let prog = load_hcl ~provider path in
    print_endline
      (Zodiac_hcl.Plan.to_string
         ~type_name:provider.Zodiac_provider.Provider.to_terraform prog)
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Compile an HCL file and print its Terraform-style plan JSON")
    Term.(const run $ verbose_arg $ provider_arg $ file_arg)

(* ---- export --------------------------------------------------------- *)

let export_cmd =
  let run verbose provider seed size jobs cache trace format =
    setup_logs verbose;
    let telemetry = telemetry_of trace in
    let artifacts =
      Zodiac.Pipeline.run
        ~config:(config_of ~jobs ?cache_dir:cache ~provider seed size)
        ~telemetry ()
    in
    write_trace trace telemetry;
    let checks = artifacts.Zodiac.Pipeline.final_checks in
    match format with
    | "insights" -> print_endline (Zodiac.Export.insights checks)
    | "rag" ->
        print_endline
          (Zodiac_util.Json.to_string ~pretty:true
             (Zodiac.Export.rag_knowledge_base checks))
    | "policy" -> print_endline (Zodiac.Export.policy_rules checks)
    | other ->
        prerr_endline ("unknown format: " ^ other);
        exit 2
  in
  let format =
    Arg.(
      value
      & opt string "insights"
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Output format: insights (markdown), rag (JSON), policy (YAML).")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Run the pipeline and export the validated checks as documentation \
          insights, a RAG knowledge base, or an ancillary-checker policy file")
    Term.(
      const run $ verbose_arg $ provider_arg $ seed_arg $ size_arg 600
      $ jobs_arg $ cache_term $ trace_arg $ format)

(* ---- corpus --------------------------------------------------------- *)

let corpus_cmd =
  let run verbose provider seed size jobs trace =
    setup_logs verbose;
    let telemetry = telemetry_of trace in
    let projects =
      Zodiac_util.Telemetry.with_span telemetry "corpus" (fun () ->
          Zodiac_corpus.Generator.generate ~provider
            ~violation_rate:
              Zodiac.Pipeline.default_config.Zodiac.Pipeline.violation_rate
            ~jobs:(resolve_jobs jobs) ~seed ~count:size ())
    in
    write_trace trace telemetry;
    let by_scenario = Hashtbl.create 16 in
    List.iter
      (fun p ->
        Hashtbl.replace by_scenario p.Zodiac_corpus.Generator.scenario
          (1
          + Option.value ~default:0
              (Hashtbl.find_opt by_scenario p.Zodiac_corpus.Generator.scenario)))
      projects;
    Printf.printf "%d projects (%d with injected violations)\n"
      (List.length projects)
      (List.length
         (List.filter (fun p -> p.Zodiac_corpus.Generator.injected <> []) projects));
    Hashtbl.iter (fun s c -> Printf.printf "  %-18s %d\n" s c) by_scenario
  in
  Cmd.v
    (Cmd.info "corpus" ~doc:"Generate a synthetic corpus and print statistics")
    Term.(
      const run $ verbose_arg $ provider_arg $ seed_arg $ size_arg 1000
      $ jobs_arg $ trace_arg)

(* ---- serve ---------------------------------------------------------- *)

let serve_cmd =
  let run verbose provider checks_file socket jobs cache trace timestamps
      max_request_bytes deadline_ms max_clients =
    setup_logs verbose;
    let telemetry = telemetry_of trace in
    let session_config =
      {
        Zodiac_serve.Session.provider;
        checks_file;
        cache_dir = cache;
        jobs = resolve_jobs jobs;
        timestamps;
        engine = Zodiac_engine.Engine.default_config;
      }
    in
    match Zodiac_serve.Session.create ~telemetry session_config with
    | Error e ->
        prerr_endline ("error: " ^ e);
        exit 2
    | Ok session ->
        let server_config =
          {
            Zodiac_serve.Server.max_request_bytes;
            deadline_ms = (if deadline_ms <= 0 then None else Some deadline_ms);
            max_clients;
          }
        in
        (* the banner goes to stderr: stdout is the protocol channel *)
        Printf.eprintf
          "zodiac serve [%s]: %d checks resident (%s), %s transport; send \
           {\"method\":\"shutdown\"} or EOF to stop\n%!"
          provider.Zodiac_provider.Provider.name
          (List.length (Zodiac_serve.Session.checks session))
          (match checks_file with
          | None -> "ground truth"
          | Some f -> "check set " ^ f)
          (match socket with
          | None -> "stdio"
          | Some path -> "unix socket " ^ path);
        (match socket with
        | None ->
            Zodiac_serve.Server.serve_stdio ~config:server_config session
        | Some path ->
            Zodiac_serve.Server.serve_socket ~config:server_config session
              ~path);
        write_trace trace telemetry
  in
  let checks_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "checks" ] ~docv:"FILE"
          ~doc:
            "Serve a validated check set saved by 'zodiac validate -o' \
             instead of the built-in ground-truth rules.")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) instead of \
             stdin/stdout; up to --max-clients connections are served \
             concurrently.")
  in
  let timestamps =
    Arg.(
      value & flag
      & info [ "timestamps" ]
          ~doc:
            "Stamp SARIF results with wall-clock UTC time. Off by default \
             so responses are byte-stable.")
  in
  let max_request_bytes =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "max-request-bytes" ] ~docv:"N"
          ~doc:
            "Reject (with a structured error) request lines longer than \
             $(docv) bytes; oversized lines are drained, never buffered.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt int 0
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Answer deadline_exceeded when handling a request takes longer \
             than $(docv) milliseconds (0 = no deadline).")
  in
  let max_clients =
    Arg.(
      value
      & opt int Zodiac_serve.Server.default_config.max_clients
      & info [ "max-clients" ] ~docv:"N"
          ~doc:
            "Serve up to $(docv) socket connections concurrently (one \
             domain each); up to $(docv) more may wait in the admission \
             queue, and past that new connections are answered with a \
             structured 'busy' error and closed.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident check-as-a-service daemon: registry, engine memo \
          and warm cache loaded once, requests answered over a \
          line-delimited JSON protocol with SARIF results")
    Term.(
      const run $ verbose_arg $ provider_arg $ checks_file $ socket $ jobs_arg
      $ cache_term $ trace_arg $ timestamps $ max_request_bytes $ deadline_ms
      $ max_clients)

(* ---- rules ---------------------------------------------------------- *)

let rules_cmd =
  let run verbose provider =
    setup_logs verbose;
    let module Provider = Zodiac_provider.Provider in
    List.iter
      (fun (rule : Provider.rule) ->
        Printf.printf "%-28s [%-9s] %s\n" rule.Provider.rule_id
          (Provider.phase_to_string rule.Provider.phase)
          (Zodiac_spec.Spec_printer.to_string rule.Provider.check))
      (provider.Provider.ground_truth ())
  in
  Cmd.v
    (Cmd.info "rules" ~doc:"List the simulated cloud's ground-truth rules")
    Term.(const run $ verbose_arg $ provider_arg)

let main =
  Cmd.group
    (Cmd.info "zodiac" ~version:"1.0.0"
       ~doc:"Unearthing semantic checks for cloud IaC programs")
    [
      mine_cmd; mine_worker_cmd; validate_cmd; scan_cmd; deploy_cmd; plan_cmd;
      graph_cmd; corpus_cmd; rules_cmd; export_cmd; serve_cmd;
    ]

let () = exit (Cmd.eval main)
