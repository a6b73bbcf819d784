(* The traced pass: per-layer numbers from in-process calls into each
   layer's public functions, timed by spans recorded in the benchmark
   (the program itself carries no new spans). A traced run must report
   every per-layer metric whatever its workload, so every trace run
   profiles all three layer groups — the validate funnel, the streamed
   mine and the serve request path — on inputs from the run's seed,
   then one untraced reference of the run's own workload supplies
   [cpu_util] and [trace.overhead]. *)

module Pipeline = Zodiac.Pipeline
module Telemetry = Zodiac_util.Telemetry
module Json = Zodiac_util.Json
module Engine = Zodiac_engine.Engine
module Engine_stats = Zodiac_engine.Stats
module Scheduler = Zodiac_validation.Scheduler
module Arm = Zodiac_cloud.Arm
module Miner = Zodiac_mining.Miner
module Kb = Zodiac_kb.Kb
module Generator = Zodiac_corpus.Generator
module Provider = Zodiac_provider.Provider
module Scan = Zodiac_serve.Scan
module Sarif = Zodiac_serve.Sarif
module Server = Zodiac_serve.Server
module W = Workloads

type group = {
  metrics : (string * float * string) list;
  problems : string list;
  traced_s : float;  (** wall time of the traced calls, for [trace.overhead] *)
  digests : (string * string) list;  (** artifacts the group composed *)
}

let clocked spans = Telemetry.create ~clock:Unix.gettimeofday ~sinks:[ Spans.sink spans ] ()
let mw words = words /. 1e6

(* Wall seconds of [f ()] and its result. *)
let timed f =
  let t0 = Proc.now () in
  let v = f () in
  (v, Proc.now () -. t0)

(* ---- validate: Pipeline.mine_only, then Scheduler.run and the
   counterexample pass over an engine wired as Pipeline.run wires it,
   with the engine callbacks inside benchmark spans ---- *)

(* [arm.deploy_ms] times a deterministic 1-in-5 sample of the programs
   the engine callbacks receive, replayed through [Arm.deploy] after the
   run. *)
let arm_sample_every = 5

let validate_group ~sizes ~seed =
  let spans = Spans.create () in
  let telemetry = clocked spans in
  let config = W.config ~seed ~projects:sizes.W.validate_projects in
  let provider = config.Pipeline.provider and jobs = config.Pipeline.jobs in
  let art =
    Spans.with_span spans "bench.mine_only" (fun () -> Pipeline.mine_only ~config ~telemetry ())
  in
  let engine = Engine.create ~provider ~config:config.Pipeline.engine () in
  let received = ref 0 and sampled = ref [] in
  let observe p =
    if !received mod arm_sample_every = 0 then sampled := p :: !sampled;
    incr received
  in
  let deploy p =
    Spans.with_span spans "engine" (fun () ->
        observe p;
        Engine.oracle engine p)
  in
  let deploy_batch ps =
    Spans.with_span spans "engine" (fun () ->
        List.iter observe ps;
        Engine.oracle_batch ~jobs engine ps)
  in
  (* a clockless recorder just for the scheduler's own counters *)
  let counters = Telemetry.create () in
  let validation =
    Spans.with_span spans "scheduler" (fun () ->
        Scheduler.run ~config:config.Pipeline.scheduler ~telemetry:counters ~jobs ~deploy_batch
          ~provider ~kb:art.Pipeline.kb ~corpus:art.Pipeline.corpus ~deploy
          art.Pipeline.candidates)
  in
  let kept, _exposed =
    Spans.with_span spans "counterexample" (fun () ->
        Scheduler.counterexample_pass ~jobs ~provider ~corpus:art.Pipeline.corpus ~deploy
          validation.Scheduler.validated)
  in
  let checks_path = Proc.scratch "trace-checks.json" in
  Zodiac.Checkset.save_exn checks_path kept;
  let digests = [ (W.checkset_file, Sha256.digest_hex (Proc.read_file checks_path)) ] in
  let sample = List.rev !sampled in
  let (), replay_s = timed (fun () -> List.iter (fun p -> ignore (Arm.deploy ~provider p)) sample) in
  let stage name = Spans.self_time spans (Spans.find spans name) in
  let scheduler = Spans.find spans "scheduler" in
  let counterexample = Spans.find spans "counterexample" in
  let engine_inside parent =
    Spans.spans spans
    |> List.filter (fun s -> String.equal s.Spans.name "engine" && s.Spans.parent = Some parent.Spans.id)
    |> List.fold_left (fun acc s -> acc +. Spans.duration s) 0.
  in
  let busy = engine_inside scheduler in
  (* the scheduler span's only children are the engine spans, so this
     is scheduler.s − engine.busy_s by definition, not a cross-check *)
  let plan = Spans.self_time spans scheduler in
  let scheduler_s = Spans.duration scheduler in
  let stats = Engine.stats engine in
  let count name = float_of_int (Option.value ~default:0 (List.assoc_opt name (Telemetry.totals counters))) in
  let mine_only = Spans.find spans "bench.mine_only" in
  {
    metrics =
      List.map (fun n -> (n ^ ".s", stage n, "s")) [ "corpus"; "materialize"; "kb"; "mine"; "filter"; "oracle" ]
      @ [
          ("scheduler.s", scheduler_s, "s");
          ("engine.busy_s", busy, "s");
          ("scheduler.plan_s", plan, "s");
          ("counterexample.s", Spans.duration counterexample, "s");
          ("counterexample.engine_s", engine_inside counterexample, "s");
          ("arm.deploy_ms", replay_s *. 1000. /. float_of_int (max 1 (List.length sample)), "ms");
          ("engine.requests", float_of_int stats.Engine_stats.requests, "count");
          ("engine.deployments", float_of_int stats.Engine_stats.attempts, "count");
          ( "engine.memo_hit_ratio",
            float_of_int stats.Engine_stats.cache_hits /. float_of_int (max 1 stats.Engine_stats.requests),
            "ratio" );
          ("scheduler.batches", count "scheduler.batches", "count");
          ("scheduler.batch_programs", count "scheduler.batch_programs", "count");
          ("scheduler.iterations", count "scheduler.iterations", "count");
          ("mine.alloc_mw", mw mine_only.Spans.minor_words, "Mwords");
          ("validate.alloc_mw", mw (scheduler.Spans.minor_words +. counterexample.Spans.minor_words), "Mwords");
        ];
    problems = [];
    traced_s = Spans.duration mine_only +. scheduler_s +. Spans.duration counterexample;
    digests;
  }

(* ---- mine_stream: Pipeline.mine_streamed under a clocked recorder,
   then shard 0 replayed layer by layer ---- *)

let mine_group ~sizes ~seed =
  let spans = Spans.create () in
  let telemetry = clocked spans in
  let dir = Proc.scratch "trace-mine" in
  Fun.protect ~finally:(fun () -> Proc.rm_rf dir) @@ fun () ->
  let config =
    { (W.config ~seed ~projects:sizes.W.mine_projects) with Pipeline.cache_dir = Some dir }
  in
  let provider = config.Pipeline.provider and jobs = config.Pipeline.jobs in
  let streamed =
    Spans.with_span spans "bench.stream" (fun () ->
        Pipeline.mine_streamed ~config ~telemetry ~shard_size:sizes.W.shard_size ())
  in
  let digests = W.final_artifacts dir in
  let checkpoint_mb = float_of_int (Proc.dir_bytes dir) /. 1048576. in
  let projects, generate_s =
    timed (fun () ->
        Generator.generate_range ~provider ~violation_rate:config.Pipeline.violation_rate ~jobs ~seed
          ~lo:0
          ~hi:(min sizes.W.shard_size sizes.W.mine_projects)
          ())
  in
  let programs, materialize_s =
    timed (fun () ->
        Miner.materialize ~provider ~jobs (List.map (fun p -> p.Generator.program) projects))
  in
  let _, kb_count_s = timed (fun () -> Kb.stats_of_projects ~jobs programs) in
  let _, mine_count_s =
    timed (fun () ->
        Miner.count_tables ~provider ~jobs config.Pipeline.mining streamed.Pipeline.s_kb programs)
  in
  let stream = Spans.find spans "bench.stream" in
  {
    metrics =
      [
        ("stream.kb_pass_s", Spans.duration (Spans.find spans "kb"), "s");
        ("stream.mine_pass_s", Spans.duration (Spans.find spans "mine"), "s");
        ("stream.alloc_mw", mw stream.Spans.minor_words, "Mwords");
        ("shard.generate_ms", generate_s *. 1000., "ms");
        ("shard.materialize_ms", materialize_s *. 1000., "ms");
        ("shard.kb_count_ms", kb_count_s *. 1000., "ms");
        ("shard.mine_count_ms", mine_count_s *. 1000., "ms");
        ("cache.checkpoint_mb", checkpoint_mb, "MB");
      ];
    problems = [];
    traced_s = Spans.duration stream;
    digests;
  }

(* ---- serve: the first requests of both streams replayed in-process,
   one layer at a time; mean microseconds per request ---- *)

let per_request_us n f =
  let (), s = timed (fun () -> for i = 0 to n - 1 do f i done) in
  s *. 1e6 /. float_of_int n

let handle_us ~stream ~n =
  let session = Serve_load.fresh_session () in
  let lines = Array.init n (Serve_load.line stream) in
  per_request_us n (fun i -> ignore (Serve_load.handle session lines.(i)))

(* Round trip of a [ping] over the daemon's socket, less its in-process
   handling: what the transport adds to every request. Each side is the
   median over [batches] batches of the mean of [batch] pings: a median
   resists outliers, and a batch mean resolves below the clock's step
   (a [gettimeofday] float is only good to about 0.24 µs). *)
let transport_us ~zodiac ~batches =
  let batch = 20 in
  let batch_us f = List.init batches (fun _ -> per_request_us batch (fun _ -> f ())) in
  let rtt = ref [] in
  let _, status =
    Serve_load.with_daemon ~zodiac ~max_clients:1 "trace-transport" (fun d ->
        Serve_load.await_ping d;
        let c = Proc.connect d.Serve_load.socket in
        Fun.protect ~finally:(fun () -> Proc.close c) (fun () ->
            rtt := batch_us (fun () -> ignore (Proc.request c Serve_load.ping)));
        Serve_load.stop d)
  in
  if not (Proc.exited_ok status) then failwith "transport daemon failed";
  let session = Serve_load.fresh_session () in
  let local = batch_us (fun () -> ignore (Serve_load.handle session Serve_load.ping)) in
  Stats.median !rtt -. Stats.median local

let serve_group ~zodiac ~sizes ~seed =
  let n = sizes.W.trace_requests in
  let cold = W.serve_stream ~sizes ~seed ~hot:false in
  let hot = W.serve_stream ~sizes ~seed ~hot:true in
  let provider = Zodiac_providers.Providers.default in
  let checks = Scan.ground_truth_entries provider in
  let type_map = provider.Provider.of_terraform in
  let lines = Array.init n (Serve_load.line cold) in
  let sources = Array.init n (Serve_load.source cold) in
  let parse_us =
    per_request_us n (fun i ->
        ignore (Zodiac_serve.Protocol.parse ~max_bytes:Server.default_config.Server.max_request_bytes lines.(i)))
  in
  let compile_us =
    per_request_us n (fun i -> ignore (Zodiac_hcl.Compile.compile_string ~type_map sources.(i)))
  in
  let findings = Array.make n [] in
  let scan_us =
    per_request_us n (fun i ->
        match Scan.scan_source ~provider ~checks ~file:"zbench.tf" sources.(i) with
        | Ok fs -> findings.(i) <- fs
        | Error e -> failwith e)
  in
  let sarif_us =
    per_request_us n (fun i -> ignore (Json.to_string (Sarif.document findings.(i))))
  in
  let cache = Zodiac_serve.Scan_cache.create ~checks () in
  let tag = Provider.fingerprint provider in
  let hot_sources = Array.init sizes.W.hot_sources (Serve_load.source hot) in
  Array.iter
    (fun src ->
      match Scan.scan_source ~provider ~checks ~file:"" src with
      | Ok fs -> Zodiac_serve.Scan_cache.add cache ~tag ~mode:"hcl" src fs
      | Error e -> failwith e)
    hot_sources;
  let misses = ref 0 in
  let lookup_us =
    per_request_us n (fun i ->
        match
          Zodiac_serve.Scan_cache.find cache ~tag ~mode:"hcl" ~file:"zbench.tf"
            hot_sources.(i mod Array.length hot_sources)
        with
        | Some _ -> ()
        | None -> incr misses)
  in
  let handle_cold = handle_us ~stream:cold ~n in
  let handle_hot = handle_us ~stream:hot ~n in
  let transport = transport_us ~zodiac ~batches:(max 5 (n / 80)) in
  {
    metrics =
      [
        ("protocol.parse_us", parse_us, "us");
        ("hcl.compile_us", compile_us, "us");
        ("scan.eval_us", scan_us -. compile_us, "us");
        ("sarif.render_us", sarif_us, "us");
        ("scan_cache.lookup_us", lookup_us, "us");
        ("server.handle_us", handle_cold, "us");
        ("server.handle_hot_us", handle_hot, "us");
        ("transport_us", transport, "us");
      ];
    problems = (if !misses > 0 then [ Printf.sprintf "%d scan-cache lookups missed" !misses ] else []);
    traced_s = 0.;
    digests = [];
  }

(* ---- the run's own workload, untraced ---- *)

let metric group name =
  match List.find_opt (fun (n, _, _) -> String.equal n name) group.metrics with
  | Some (_, v, _) -> v
  | None -> failwith ("no metric " ^ name)

let same_digests ~what ours theirs =
  if ours = theirs then [] else [ Printf.sprintf "%s differ" what ]

(* (cpu_util, trace.overhead, problems) *)
let reference ~zodiac ~sizes ~seed ~validate ~mine ~serve workload =
  let t = W.tally () in
  match workload with
  | "validate" ->
      let p = W.run_validate_proc ~zodiac ~sizes ~seed t 0 in
      let f = p.W.finished in
      ( f.Proc.cpu /. f.Proc.wall,
        validate.traced_s /. f.Proc.wall,
        t.W.problems @ same_digests ~what:"validate -o and the in-process check set" p.W.digests validate.digests )
  | "mine_stream" ->
      let p = W.run_mine_proc ~zodiac ~sizes ~seed t 0 in
      let f = p.W.finished in
      ( f.Proc.cpu /. f.Proc.wall,
        mine.traced_s /. f.Proc.wall,
        t.W.problems @ same_digests ~what:"mine CLI and in-process cache artifacts" p.W.digests mine.digests )
  | "serve_cold" | "serve_hot" ->
      let hot = String.equal workload "serve_hot" in
      let stream = W.serve_stream ~sizes ~seed ~hot in
      let w =
        Serve_load.run_window ~zodiac ~stream ~clients:W.clients
          ~requests:(W.serve_requests sizes ~seconds:sizes.W.reference_seconds ~hot)
          ~sample_every:max_int "trace-reference"
      in
      let latencies = List.concat_map (fun l -> l.Serve_load.latencies_ms) w.Serve_load.logs in
      let traced_us =
        metric serve (if hot then "server.handle_hot_us" else "server.handle_us")
        +. metric serve "transport_us"
      in
      ( w.Serve_load.daemon_cpu /. w.Serve_load.wall,
        traced_us /. (Stats.median latencies *. 1000.),
        if Proc.exited_ok w.Serve_load.status then [] else [ "reference daemon failed" ] )
  | other -> invalid_arg ("unknown workload " ^ other)

let run ~zodiac ~sizes ~seed workload =
  let t0 = Proc.now () in
  let (validate, mine, serve), groups_s =
    timed (fun () ->
        let validate = validate_group ~sizes ~seed in
        let mine = mine_group ~sizes ~seed in
        (validate, mine, serve_group ~zodiac ~sizes ~seed))
  in
  let cpu_util, overhead, ref_problems =
    reference ~zodiac ~sizes ~seed ~validate ~mine ~serve workload
  in
  let wall = Proc.now () -. t0 in
  let pinned =
    if sizes.W.pinned && seed = W.default_seed then
      same_digests ~what:"in-process check set and its pin" validate.digests (List.assoc "validate" Pins.digests)
      @ same_digests ~what:"in-process mine artifacts and their pins" mine.digests (List.assoc "mine_stream" Pins.digests)
    else []
  in
  let problems = validate.problems @ mine.problems @ serve.problems @ ref_problems @ pinned in
  {
    W.workload;
    seed;
    attempted = 1;
    failed = (if problems = [] then 0 else 1);
    problems;
    metrics =
      validate.metrics @ mine.metrics @ serve.metrics
      @ [ ("cpu_util", cpu_util, "ratio"); ("trace.overhead", overhead, "ratio") ];
    notes =
      [
        ( "trace wall",
          Printf.sprintf "%.1f s (layer groups %.1f s, reference %.1f s; a run must end within 180 s)"
            wall groups_s (wall -. groups_s) );
      ];
  }
