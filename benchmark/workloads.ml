(* The four workloads, measured end to end with tracing off: every
   number comes from the real [zodiac] binary run as a separate
   process. *)

module Pipeline = Zodiac.Pipeline

let names = [ "validate"; "mine_stream"; "serve_cold"; "serve_hot" ]

(* The seed every digest in [Pins] was recorded with:
   [Pipeline.default_config]'s corpus seed. *)
let default_seed = Pipeline.default_config.Pipeline.corpus_seed

(* A run's length is a fixed amount of work, not a time: [--seconds T]
   is turned into a number of processes or requests by the rates below,
   so both sides of a comparison do the same work and a faster program
   simply finishes sooner. (At the seed commit a run takes about T
   seconds.) *)
type sizes = {
  validate_projects : int;
  mine_projects : int;
  shard_size : int;
  cold_pool : int;  (** distinct programs behind the cold stream's salted sources *)
  hot_sources : int;  (** distinct sources the hot stream cycles over *)
  validate_every : float;  (** seconds of [T] per validate process *)
  mine_every : float;  (** seconds of [T] per mine process *)
  cold_rate : float;  (** serve_cold requests per second of [T] *)
  hot_rate : float;  (** serve_hot requests per second of [T] *)
  setup_spawns : int;  (** set-up probes behind [setup_s] *)
  sample_every : int;  (** replay every n-th serve request *)
  trace_requests : int;  (** serve requests replayed by the traced pass *)
  reference_seconds : float;  (** [T] of the serve window behind the traced pass's [cpu_util] *)
  pinned : bool;  (** the sizes [Pins] was recorded at *)
}

let full =
  {
    validate_projects = Pipeline.default_config.Pipeline.corpus_size;
    mine_projects = 5000;
    shard_size = 500;
    cold_pool = 256;
    hot_sources = 64;
    validate_every = 5.;
    mine_every = 6.5;
    cold_rate = 2000.;
    hot_rate = 6000.;
    setup_spawns = 32;
    sample_every = 16;
    trace_requests = 4000;
    reference_seconds = 3.;
    pinned = true;
  }

let smoke =
  {
    validate_projects = 150;
    mine_projects = 300;
    shard_size = 100;
    cold_pool = 16;
    hot_sources = 8;
    validate_every = 1.;
    mine_every = 1.;
    cold_rate = 200.;
    hot_rate = 200.;
    setup_spawns = 2;
    sample_every = 16;
    trace_requests = 100;
    reference_seconds = 0.5;
    pinned = false;
  }

(* Processes of a batch run, requests of a serve window: at least one. *)
let count ~seconds per_second = max 1 (Float.to_int (Float.round (seconds *. per_second)))
let batch_processes ~seconds every = count ~seconds (1. /. every)

let serve_requests sizes ~seconds ~hot =
  count ~seconds (if hot then sizes.hot_rate else sizes.cold_rate)

type run = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;
  problems : string list;  (** every failed output check *)
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : (string * string) list;  (** diagnostics printed beside the metrics *)
}

let correct r = r.problems = []

(* A mutable tally of operations, failures and failed checks. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let tally () = { attempted = 0; failed = 0; problems = [] }

(* Record a failed check that cost [ops] operations (default one). *)
let fail ?(ops = 1) t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + ops;
      t.problems <- t.problems @ [ msg ])
    fmt

let check t ok fmt = Printf.ksprintf (fun msg -> if not ok then fail t "%s" msg) fmt

(* The CLI's default cache directory must never appear: every
   invocation passes --no-cache or a fresh --cache-dir. *)
let check_no_default_cache t =
  check t
    (not (Sys.file_exists Zodiac_util.Cache.default_dir))
    "%s/ appeared in the working directory" Zodiac_util.Cache.default_dir

let config ~seed ~projects =
  { Pipeline.default_config with Pipeline.corpus_seed = seed; corpus_size = projects }

(* "peak RSS: 66.9 MB" -> 66.9 *)
let peak_rss_mb report =
  String.split_on_char '\n' report
  |> List.find_map (fun l -> Scanf.sscanf_opt l "peak RSS: %f MB" Fun.id)

let p50 xs = Stats.percentile xs 50.
let p99 xs = Stats.percentile xs 99.
let sum xs = List.fold_left ( +. ) 0. xs

(* [setup_s] and the results of the measured [steps]: the median of
   [setup_spawns] timings of [probe], spread evenly over the gaps
   before, between and after the steps. A shared host's speed sits at
   one of two levels for seconds at a time, and a median over every gap
   of the run moves less from run to run than one taken from a single
   burst. *)
let with_setup sizes probe steps =
  let gaps = List.length steps + 1 in
  let timings = ref [] and next = ref 0 in
  let gap g =
    while !next < sizes.setup_spawns * (g + 1) / gaps do
      timings := probe !next :: !timings;
      incr next
    done
  in
  gap 0;
  let results =
    List.mapi
      (fun i step ->
        let v = step () in
        gap (i + 1);
        v)
      steps
  in
  (Stats.median !timings, results)

(* ---- batch workloads ------------------------------------------------ *)

type batch_proc = {
  finished : Proc.finished;
  rss_mb : float option;
  digests : (string * string) list;  (** output artifact -> sha256 *)
}

(* Every batch process is an operation: the tail is the nearest-rank
   p99 of a handful of processes, i.e. the slowest one, and throughput
   is the projects all of them processed over their summed wall time. *)
let batch_metrics ~projects ~setup procs =
  let walls = List.map (fun p -> p.finished.Proc.wall) procs in
  let rss = List.filter_map (fun p -> p.rss_mb) procs in
  [
    ("latency_p50_ms", p50 walls *. 1000., "ms");
    ("latency_tail_ms", p99 walls *. 1000., "ms");
    ("throughput", float_of_int (projects * List.length procs) /. sum walls, "1/s");
    ("peak_rss_mb", (if rss = [] then nan else p50 rss), "MB");
    ("setup_s", setup, "s");
  ]

(* Every process of a run saw the same inputs, so their artifacts must
   agree; the first one is then checked against the pinned digests (at
   the pinned seed and sizes) or an in-process composition. *)
let check_outputs t ~what ~expected procs =
  match procs with
  | [] -> ()
  | first :: rest ->
      List.iteri
        (fun i p ->
          check t (p.digests = first.digests) "%s: process %d output differs from process 0" what
            (i + 1))
        rest;
      let expected = expected () in
      List.iter
        (fun (artifact, digest) ->
          match List.assoc_opt artifact first.digests with
          | Some d when String.equal d digest -> ()
          | Some d -> fail t "%s: %s sha256 %s, expected %s" what artifact d digest
          | None -> fail t "%s: %s missing" what artifact)
        expected

let cpu_util procs =
  sum (List.map (fun p -> p.finished.Proc.cpu) procs)
  /. sum (List.map (fun p -> p.finished.Proc.wall) procs)

(* A batch workload's set-up probe: its command at zero projects, which
   is what every process pays besides the per-project work (binary
   start, provider tables, pipeline and report set-up). Not one
   project: whether a single project yields candidates to validate
   depends on the seed, and then the probe takes 10-40 times longer. *)
let run_probe t ~what argv =
  let finished = Proc.run argv in
  t.attempted <- t.attempted + 1;
  check_no_default_cache t;
  if not (Proc.exited_ok finished.Proc.status) then
    fail t "%s set-up probe: %s" what (Proc.describe_status finished.Proc.status);
  finished.Proc.wall

let validate_argv ~zodiac ~projects ~seed out =
  [|
    zodiac; "validate"; "--no-cache"; "--projects"; string_of_int projects; "--seed";
    string_of_int seed; "-o"; out;
  |]

let probe_validate ~zodiac ~sizes:_ ~seed t _ =
  let out = Proc.scratch "setup-checks.json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () -> run_probe t ~what:"validate" (validate_argv ~zodiac ~projects:0 ~seed out))

let checkset_file = "checks.json"

(* The validated check set, composed in-process exactly as the CLI's
   [validate -o] writes it. *)
let composed_checkset_digest ~sizes ~seed =
  let artifacts = Pipeline.run ~config:(config ~seed ~projects:sizes.validate_projects) () in
  let path = Proc.scratch "composed-checks.json" in
  Zodiac.Checkset.save_exn path artifacts.Pipeline.final_checks;
  [ (checkset_file, Sha256.digest_hex (Proc.read_file path)) ]

let expected_digests ~sizes ~seed ~workload compose () =
  if sizes.pinned && seed = default_seed then List.assoc workload Pins.digests
  else compose ()

let run_validate_proc ~zodiac ~sizes ~seed t i =
  let out = Proc.scratch (Printf.sprintf "validate%d.json" i) in
  let report = Proc.scratch (Printf.sprintf "validate%d.txt" i) in
  let finished =
    Proc.run ~stdout_to:report
      ~stderr_to:(Proc.scratch (Printf.sprintf "validate%d.log" i))
      (validate_argv ~zodiac ~projects:sizes.validate_projects ~seed out)
  in
  t.attempted <- t.attempted + 1;
  check_no_default_cache t;
  if not (Proc.exited_ok finished.Proc.status) then
    fail t "validate process %d: %s" i (Proc.describe_status finished.Proc.status);
  let text = try Proc.read_file report with Sys_error _ -> "" in
  let digests =
    match Proc.read_file out with
    | bytes -> [ (checkset_file, Sha256.digest_hex bytes) ]
    | exception Sys_error _ -> []
  in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ out; report ];
  { finished; rss_mb = peak_rss_mb text; digests }

(* ---- mine_stream ---- *)

let mine_argv ~zodiac ~projects ~shard_size ~seed dir =
  [|
    zodiac; "mine"; "--projects"; string_of_int projects; "--shard-size";
    string_of_int shard_size; "--limit"; "0"; "--cache-dir"; dir; "--seed"; string_of_int seed;
  |]

let probe_mine ~zodiac ~sizes ~seed t _ =
  let dir = Proc.scratch "setup-mine" in
  Fun.protect
    ~finally:(fun () -> Proc.rm_rf dir)
    (fun () ->
      run_probe t ~what:"mine" (mine_argv ~zodiac ~projects:0 ~shard_size:sizes.shard_size ~seed dir))

(* The final streamed artifacts in a cache dir: the KB statistics
   ([kb-*]) and the mined candidate set ([mine-*]); shard checkpoints
   are intermediate. *)
let final_artifacts dir =
  List.filter_map
    (fun f ->
      List.find_map
        (fun kind ->
          if String.starts_with ~prefix:(kind ^ "-") f then
            Some (kind, Sha256.digest_hex (Proc.read_file (Filename.concat dir f)))
          else None)
        [ "kb"; "mine" ])
    (Proc.files_in dir)

let shards sizes = (sizes.mine_projects + sizes.shard_size - 1) / sizes.shard_size

(* "  kb pass: 10 shards (0 resumed from checkpoints, 10 built)" *)
let pass_counts report pass =
  String.split_on_char '\n' report
  |> List.find_map (fun l ->
         Scanf.sscanf_opt (String.trim l) "%s pass: %d shards (%d resumed from checkpoints, %d built)"
           (fun p n r b -> if String.equal p pass then Some (n, r, b) else None)
         |> Option.join)

let composed_stream_digests ~sizes ~seed =
  let dir = Proc.scratch "composed-mine" in
  Fun.protect
    ~finally:(fun () -> Proc.rm_rf dir)
    (fun () ->
      ignore
        (Pipeline.mine_streamed
           ~config:{ (config ~seed ~projects:sizes.mine_projects) with Pipeline.cache_dir = Some dir }
           ~shard_size:sizes.shard_size ());
      final_artifacts dir)

let run_mine_proc ~zodiac ~sizes ~seed t i =
  let dir = Proc.scratch (Printf.sprintf "mine%d" i) in
  let report = Proc.scratch (Printf.sprintf "mine%d.txt" i) in
  Fun.protect
    ~finally:(fun () ->
      Proc.rm_rf dir;
      try Sys.remove report with Sys_error _ -> ())
    (fun () ->
      let finished =
        Proc.run ~stdout_to:report
          ~stderr_to:(Proc.scratch (Printf.sprintf "mine%d.log" i))
          (mine_argv ~zodiac ~projects:sizes.mine_projects ~shard_size:sizes.shard_size ~seed dir)
      in
      t.attempted <- t.attempted + 1;
      check_no_default_cache t;
      if not (Proc.exited_ok finished.Proc.status) then
        fail t "mine process %d: %s" i (Proc.describe_status finished.Proc.status);
      let text = try Proc.read_file report with Sys_error _ -> "" in
      let n = shards sizes in
      List.iter
        (fun pass ->
          check t
            (pass_counts text pass = Some (n, 0, n))
            "mine process %d: %s pass did not build all %d shards fresh" i pass n)
        [ "kb"; "mine" ];
      let digests = if Sys.file_exists dir then final_artifacts dir else [] in
      { finished; rss_mb = peak_rss_mb text; digests })

(* A batch workload: set-up probes around a fixed number of fresh
   processes run back to back, then the output checks. *)
let batch ~zodiac ~sizes ~seed ~seconds ~workload ~projects ~every ~what ~compose ~probe run_proc =
  let t = tally () in
  let setup, procs =
    with_setup sizes (probe ~zodiac ~sizes ~seed t)
      (List.init (batch_processes ~seconds every) (fun i () -> run_proc ~zodiac ~sizes ~seed t i))
  in
  check_outputs t ~what
    ~expected:(expected_digests ~sizes ~seed ~workload (fun () -> compose ~sizes ~seed))
    procs;
  {
    workload;
    seed;
    attempted = t.attempted;
    failed = t.failed;
    problems = t.problems;
    metrics = batch_metrics ~projects ~setup procs;
    notes =
      [
        ("processes", string_of_int (List.length procs));
        ("cpu_util", Printf.sprintf "%.3f" (cpu_util procs));
      ];
  }

(* ---- serve workloads ---- *)

let clients = 2

let serve_stream ~sizes ~seed ~hot =
  if hot then Serve_load.stream ~seed ~pool:sizes.hot_sources ~distinct:(Some sizes.hot_sources)
  else Serve_load.stream ~seed ~pool:sizes.cold_pool ~distinct:None

let int_member path json =
  List.fold_left (fun j k -> Zodiac_util.Json.member k j) json path
  |> Zodiac_util.Json.int_value

(* A serve workload's set-up probe: daemon spawn to first [ping]
   answered (binary start, registry load, engine build). *)
let probe_serve ~zodiac t i =
  let seconds, status = Serve_load.setup_seconds ~zodiac (Printf.sprintf "setup%d" i) in
  t.attempted <- t.attempted + 1;
  if not (Proc.exited_ok status) then
    fail t "serve set-up probe: daemon %s" (Proc.describe_status status);
  seconds

let serve ~zodiac ~sizes ~seed ~seconds ~hot =
  let workload = if hot then "serve_hot" else "serve_cold" in
  let t = tally () in
  let stream = serve_stream ~sizes ~seed ~hot in
  let requests = serve_requests sizes ~seconds ~hot in
  let setup, windows =
    with_setup sizes (probe_serve ~zodiac t)
      [
        (fun () ->
          Serve_load.run_window ~zodiac ~stream ~clients ~requests ~sample_every:sizes.sample_every
            "serve");
      ]
  in
  let w = List.hd windows in
  check_no_default_cache t;
  let completed = List.fold_left (fun acc l -> acc + l.Serve_load.completed) 0 w.Serve_load.logs in
  t.attempted <- t.attempted + requests;
  check t (completed = requests) "%d of %d requests completed" completed requests;
  let not_ok = List.fold_left (fun acc l -> acc + l.Serve_load.failures) 0 w.Serve_load.logs in
  if not_ok > 0 then fail ~ops:not_ok t "%d replies were not ok" not_ok;
  if not (Proc.exited_ok w.Serve_load.status) then
    fail t "daemon: %s" (Proc.describe_status w.Serve_load.status);
  let ids = Serve_load.completed_ids ~clients w.Serve_load.logs in
  let distinct =
    List.sort_uniq compare (List.map (Serve_load.key stream) ids) |> List.length
  in
  let misses = int_member [ "scan_cache"; "misses" ] w.Serve_load.stats in
  let hits = int_member [ "scan_cache"; "hits" ] w.Serve_load.stats in
  let entries = int_member [ "scan_cache"; "entries" ] w.Serve_load.stats in
  check t
    (misses = Some distinct)
    "scan cache misses %s, expected one per distinct source (%d): the daemon did not start cold"
    (Option.fold ~none:"?" ~some:string_of_int misses)
    distinct;
  let mismatched = Serve_load.replay_mismatches ~stream w.Serve_load.logs in
  (match mismatched with
  | [] -> ()
  | first :: _ ->
      let n = List.length mismatched in
      fail ~ops:n t "%d replayed replies differ (first id %d)" n first);
  let latencies = List.concat_map (fun l -> l.Serve_load.latencies_ms) w.Serve_load.logs in
  let rss_kb = int_member [ "peak_rss_kb" ] w.Serve_load.stats in
  let findings = int_member [ "findings" ] w.Serve_load.stats in
  let opt = Option.fold ~none:"?" ~some:string_of_int in
  {
    workload;
    seed;
    attempted = t.attempted;
    failed = t.failed;
    problems = t.problems;
    metrics =
      [
        ("latency_p50_ms", p50 latencies, "ms");
        ("latency_tail_ms", p99 latencies, "ms");
        ("throughput", float_of_int completed /. w.Serve_load.wall, "1/s");
        ("peak_rss_mb", Option.fold ~none:nan ~some:(fun kb -> float_of_int kb /. 1024.) rss_kb, "MB");
        ("setup_s", setup, "s");
      ];
    notes =
      [
        ("requests", string_of_int completed);
        ("scan_cache", Printf.sprintf "hits=%s misses=%s entries=%s" (opt hits) (opt misses) (opt entries));
        ( "scan_cache.evictions",
          match (misses, entries) with
          | Some m, Some e -> string_of_int (m - e)
          | _ -> "?" );
        ( "findings_per_req",
          match findings with
          | Some f -> Printf.sprintf "%.2f" (float_of_int f /. float_of_int (max 1 completed))
          | None -> "?" );
        ("server.cpu_util", Printf.sprintf "%.3f" (w.Serve_load.daemon_cpu /. w.Serve_load.wall));
        ("replayed", string_of_int (List.length (List.concat_map (fun l -> l.Serve_load.sampled) w.Serve_load.logs)));
      ];
  }

let run ~zodiac ~sizes ~seed ~seconds = function
  | "validate" ->
      batch ~zodiac ~sizes ~seed ~seconds ~workload:"validate" ~projects:sizes.validate_projects
        ~every:sizes.validate_every ~what:"validate -o" ~compose:composed_checkset_digest
        ~probe:probe_validate run_validate_proc
  | "mine_stream" ->
      batch ~zodiac ~sizes ~seed ~seconds ~workload:"mine_stream" ~projects:sizes.mine_projects
        ~every:sizes.mine_every ~what:"mine cache artifacts" ~compose:composed_stream_digests
        ~probe:probe_mine run_mine_proc
  | "serve_cold" -> serve ~zodiac ~sizes ~seed ~seconds ~hot:false
  | "serve_hot" -> serve ~zodiac ~sizes ~seed ~seconds ~hot:true
  | other -> invalid_arg ("unknown workload " ^ other)
