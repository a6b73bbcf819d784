module Provider = Zodiac_provider.Provider
module Providers = Zodiac_providers.Providers
module Generator = Zodiac_corpus.Generator
module Kb = Zodiac_kb.Kb
module Miner = Zodiac_mining.Miner
module Filter = Zodiac_mining.Filter
module Candidate = Zodiac_mining.Candidate
module Llm = Zodiac_oracle.Llm
module Scheduler = Zodiac_validation.Scheduler
module Arm = Zodiac_cloud.Arm
module Engine = Zodiac_engine.Engine
module Engine_stats = Zodiac_engine.Stats
module Check = Zodiac_spec.Check
module Eval = Zodiac_spec.Eval
module Graph = Zodiac_iac.Graph
module Program = Zodiac_iac.Program
module Parallel = Zodiac_util.Parallel
module Cache = Zodiac_util.Cache
module Codec = Zodiac_util.Codec
module Stage = Zodiac_util.Stage
module Shard_stream = Zodiac_util.Shard_stream
module Telemetry = Zodiac_util.Telemetry

type config = {
  provider : Provider.t;
  corpus_seed : int;
  corpus_size : int;
  violation_rate : float;
  oracle_seed : int;
  oracle_error_rate : float;
  jobs : int;
  cache_dir : string option;
  mining : Miner.config;
  thresholds : Filter.thresholds;
  scheduler : Scheduler.config;
  engine : Engine.config;
}

let default_config =
  {
    provider = Providers.default;
    corpus_seed = 20240704;
    corpus_size = 1200;
    violation_rate = 0.04;
    oracle_seed = 91;
    oracle_error_rate = 0.05;
    jobs = Parallel.recommended_jobs ();
    cache_dir = None;
    mining = Miner.default_config;
    thresholds = Filter.default_thresholds;
    scheduler = Scheduler.default_config;
    engine = Engine.default_config;
  }

let quick_config = { default_config with corpus_size = 300 }

type artifacts = {
  config : config;
  projects : Generator.project list;
  corpus : (string * Program.t) list;
  kb : Kb.t;
  mined : Candidate.t list;
  filtered : Filter.outcome;
  llm_refined : Check.t list;
  llm_rejected : int;
  candidates : Check.t list;
  validation : Scheduler.result;
  final_checks : Check.t list;
  counterexample_fps : Check.t list;
  engine_stats : Engine_stats.snapshot;
  cache_stats : Cache.stats;
}

let deploy ~provider prog = Arm.success (Arm.deploy ~provider prog)

let dedup_checks checks =
  let seen = Hashtbl.create 128 in
  List.filter
    (fun (c : Check.t) ->
      if Hashtbl.mem seen c.Check.cid then false
      else begin
        Hashtbl.replace seen c.Check.cid ();
        true
      end)
    checks

(* ---- staged execution ----------------------------------------------
   The two cacheable artifacts, the KB statistics and the mined
   candidate set, are folds run through [Stage.run], keyed by a
   fingerprint of everything they depend on. Every other phase (corpus,
   materialize, filter, oracle, validate, counterexample) is a plain
   telemetry span over pure compute. Artifacts are byte-identical for
   every [jobs] value and cold ≡ warm. *)

let cache_of config = Option.map (fun dir -> Cache.create ~dir ()) config.cache_dir

let zero_cache_stats =
  { Cache.hits = 0; misses = 0; writes = 0; write_failures = 0 }

let cache_stats_of = function
  | Some c -> Cache.stats c
  | None -> zero_cache_stats

let float_bits f = Int64.to_string (Int64.bits_of_float f)

(* Everything the corpus content depends on except its size ([jobs] is
   artifact-invariant by the Parallel contract). *)
let corpus_key config =
  Codec.fingerprint
    [
      "corpus";
      Provider.fingerprint config.provider;
      string_of_int config.corpus_seed;
      float_bits config.violation_rate;
    ]

(* A span that also accounts the Parallel chunks scheduled inside it,
   mirroring what [Stage.run] records for cached stages. *)
let spanned telemetry name f =
  Telemetry.with_span telemetry name (fun () ->
      let c0 = Parallel.chunks_scheduled () in
      let v = f () in
      Telemetry.count telemetry "parallel.chunks"
        (Parallel.chunks_scheduled () - c0);
      v)

(* The materialized-corpus identity: corpus content key plus size. *)
let tables_key config =
  Codec.fingerprint [ corpus_key config; string_of_int config.corpus_size ]

(* The mined-candidate-set address. Keep it stable: existing cache
   directories address their mined sets by it. *)
let mine_key config =
  Codec.fingerprint
    [
      tables_key config;
      string_of_bool config.mining.Miner.use_kb;
      string_of_int config.mining.Miner.min_support;
    ]

(* Filter + oracle over mined candidates. *)
let refine ?(telemetry = Telemetry.null) config mined =
  let filtered =
    spanned telemetry "filter" (fun () ->
        let f = Filter.run ~thresholds:config.thresholds mined in
        Telemetry.count telemetry "filter.kept" (List.length f.Filter.kept);
        Telemetry.count telemetry "filter.removed"
          (List.length f.Filter.removed_confidence
          + List.length f.Filter.removed_lift);
        Telemetry.count telemetry "filter.interpolation_queue"
          (List.length f.Filter.interpolation_queue);
        f)
  in
  let refined, rejected, candidates =
    spanned telemetry "oracle" (fun () ->
        let oracle =
          Llm.create ~provider:config.provider
            ~error_rate:config.oracle_error_rate config.oracle_seed
        in
        let refined, rejected =
          List.fold_left
            (fun (refined, rejected) candidate ->
              match Llm.interpolate oracle candidate with
              | Llm.Refined check -> (check :: refined, rejected)
              | Llm.Unsupported -> (refined, rejected + 1))
            ([], 0) filtered.Filter.interpolation_queue
        in
        let candidates =
          dedup_checks
            (List.map
               (fun c -> c.Candidate.check)
               filtered.Filter.kept
            @ List.rev refined)
        in
        Telemetry.count telemetry "oracle.refined" (List.length refined);
        Telemetry.count telemetry "oracle.rejected" rejected;
        Telemetry.count telemetry "oracle.candidates" (List.length candidates);
        (List.rev refined, rejected, candidates))
  in
  (filtered, refined, rejected, candidates)

(* Engine accounting attributed to the enclosing span as counter
   deltas, so validate and counterexample each report their own
   deployments/retries/faults in the trace. *)
let engine_delta telemetry engine f =
  let before = Engine_stats.counters (Engine.stats engine) in
  let v = f () in
  let after = Engine_stats.counters (Engine.stats engine) in
  List.iter2
    (fun (k, b) (k', a) ->
      assert (String.equal k k');
      Telemetry.count telemetry k (a - b))
    before after;
  v

let empty_validation =
  {
    Scheduler.validated = [];
    falsified = [];
    iterations = [];
    deployments = 0;
  }

(* ---- the mining path -----------------------------------------------
   Every run mines through the same two passes over a shard plan:

     pass 1 ("kb")    fold per-shard KB stats; finalize once at the end.
     pass 2 ("mine")  fold per-shard miner tables (intra + indexed +
                      inter) with the finalized KB fixed — the inter
                      family's reserved names are a pure function of
                      that KB, so they cannot be derived mid-stream.

   [mine --shard-size N] generates, materializes and counts the corpus
   shard by shard, never holding it whole; [mine_only] and [run] fold
   their in-memory corpus as one shard. Both passes run through
   [Stage.run], and their final artifacts are byte-identical for
   every plan by the monoid contract. A multi-shard plan checkpoints
   every shard under its own stage namespace ("shard-kb"/"shard-mine"),
   so a killed run resumes by re-counting only unfinished shards, and
   peak memory is one shard of materialized programs plus the
   accumulated tables. A one-shard plan checkpoints nothing: its only
   shard's value is the final artifact. *)

type fleet = { spawned : int; failed : int }

let no_fleet = { spawned = 0; failed = 0 }

type streamed = {
  s_config : config;
  s_shard_size : int;
  s_kb : Kb.t;
  s_mined : Candidate.t list;
  s_filtered : Filter.outcome;
  s_llm_refined : Check.t list;
  s_llm_rejected : int;
  s_candidates : Check.t list;
  s_kb_fold : Shard_stream.outcome;
  s_mine_fold : Shard_stream.outcome;
  s_kb_fleet : fleet;
  s_mine_fleet : fleet;
  s_cache_stats : Cache.stats;
}

let generate config ~lo ~hi =
  Generator.generate_range ~provider:config.provider
    ~violation_rate:config.violation_rate ~jobs:config.jobs
    ~seed:config.corpus_seed ~lo ~hi ()

let materialize config projects =
  Miner.materialize ~provider:config.provider ~jobs:config.jobs
    (List.map (fun p -> p.Generator.program) projects)

(* One shard of projects, generated and materialized on demand. The
   per-index PRNG streams make a shard's content independent of every
   other shard, so a checkpointed shard stays valid as the corpus
   grows. *)
let shard_load config ~lo ~hi = materialize config (generate config ~lo ~hi)

(* Miner-table checkpoints additionally key on the whole-corpus
   identity (the KB the counts consult) and [use_kb] — but not
   [min_support], which only gates emission. *)
let shard_mine_key config =
  Codec.fingerprint
    [ tables_key config; string_of_bool config.mining.Miner.use_kb ]

(* ---- multi-process worker fleet ------------------------------------
   [mine --workers N] spawns N children per pass of a multi-shard plan
   (a re-exec of the current binary in the hidden worker mode, argv
   supplied by the caller; [Unix.fork] is off-limits once a domain has
   existed). Child K checkpoints the shards whose index is K mod N into
   the shared cache dir ({!Shard_stream.fold_worker}) and exits; the
   children never talk to each other or to the parent. The parent waits
   for their exit statuses, then runs the ordinary resumed fold, the
   merge pass, which also rebuilds inline any shard a crashed worker
   left, so artifacts are byte-identical to [--workers 1] regardless
   of worker fates. *)

let run_fleet ~telemetry ~pass ~workers ~worker_command =
  match worker_command with
  | Some cmd when workers > 1 ->
      Telemetry.with_span telemetry ("fleet." ^ pass) (fun () ->
          (* A worker's stdout goes to stderr: the parent's stdout is
             its report. *)
          let pids =
            List.init workers (fun k ->
                let argv = cmd ~pass ~slice:(k, workers) in
                Unix.create_process argv.(0) argv Unix.stdin Unix.stderr
                  Unix.stderr)
          in
          let failed =
            List.fold_left
              (fun failed pid ->
                match snd (Unix.waitpid [] pid) with
                | Unix.WEXITED 0 -> failed
                | _ -> failed + 1)
              0 pids
          in
          Telemetry.count telemetry "fleet.workers" workers;
          if failed > 0 then Telemetry.count telemetry "fleet.failed" failed;
          { spawned = workers; failed })
  | _ -> no_fleet

(* Bounded-memory mode trades a little GC CPU for a flat footprint:
   shard churn under the default pacing (space_overhead 120) lets the
   heap balloon to several times the live set, which is exactly the
   slack streaming exists to avoid. Pacing never affects results, only
   when collections happen. Restored on exit. *)
let with_shard_gc f =
  let gc_before = Gc.get () in
  Gc.set { gc_before with Gc.space_overhead = 40 };
  Fun.protect ~finally:(fun () -> Gc.set gc_before) f

let kb_fold ?cache ?telemetry ?on_shard config ~load ~shard_size =
  let jobs = config.jobs in
  Shard_stream.fold ?cache ?telemetry ?on_shard ~stage:"shard-kb"
    ~key:(corpus_key config) ~write:Kb.write_stats ~read:Kb.read_stats ~load
    ~count:(Kb.stats_of_projects ~jobs) ~merge:Kb.merge_stats
    ~init:(Kb.stats_of_projects ~jobs [])
    ~total:config.corpus_size ~shard_size ()

let mine_worker ?(config = default_config) ~slice ~shard_size ~pass () =
  let cache =
    match cache_of config with
    | Some c -> c
    | None -> invalid_arg "mine_worker: a cache directory is required"
  in
  let jobs = config.jobs in
  let n = config.corpus_size in
  with_shard_gc @@ fun () ->
  let load = shard_load config in
  match pass with
  | `Kb ->
      Shard_stream.fold_worker ~cache ~slice ~stage:"shard-kb"
        ~key:(corpus_key config) ~write:Kb.write_stats ~load
        ~count:(Kb.stats_of_projects ~jobs) ~total:n ~shard_size ()
  | `Mine ->
      (* The mine pass needs the finalized whole-corpus KB. By the time
         the parent spawns mine workers the KB pass is complete, so
         either the final sized artifact or the full checkpoint set is
         in the shared cache — folding the latter re-counts nothing. *)
      let stats =
        match
          Cache.find ~size:n cache ~stage:"kb" ~key:(corpus_key config)
            Kb.read_stats
        with
        | Some stats -> stats
        | None -> fst (kb_fold ~cache config ~load ~shard_size)
      in
      let kb = Kb.finalize ~provider:config.provider stats in
      Shard_stream.fold_worker ~cache ~slice ~stage:"shard-mine"
        ~key:(shard_mine_key config) ~write:Miner.write_tables ~load
        ~count:(Miner.count_tables ~provider:config.provider ~jobs config.mining kb)
        ~total:n ~shard_size ()

(* The one mining function: both passes over [load]'s shards, then
   filter + oracle. *)
let final_entries dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f ->
         (String.starts_with ~prefix:"kb-" f
         || String.starts_with ~prefix:"mine-" f)
         && Filename.check_suffix f ".bin")
  |> List.sort String.compare
  |> List.map (fun f ->
         (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))

let mine_folds ~config ~telemetry ~workers ~worker_command ~progress ~load
    ~shard_size =
  let cache = cache_of config in
  let jobs = config.jobs in
  let n = config.corpus_size in
  let multi = List.length (Shard_stream.plan ~total:n ~shard_size) > 1 in
  (if multi then with_shard_gc else fun f -> f ()) @@ fun () ->
  let on_shard pass =
    Option.map
      (fun f ~index ~shards ~built -> f ~pass ~index ~shards ~built)
      progress
  in
  (* Shard checkpoints and worker fleets only for a multi-shard plan. A
     warm final-artifact hit never reaches the fold, so no workers spawn
     on warm runs. *)
  let checkpoints = if multi then cache else None in
  let fleet pass =
    if multi then run_fleet ~telemetry ~pass ~workers ~worker_command
    else no_fleet
  in
  let kb_fold_outcome = ref Shard_stream.no_shards in
  let kb_fleet = ref no_fleet in
  (* Shard checkpoints key on corpus identity + range only (no total
     size): a shard counted during a 10k-project run resumes a later
     100k-project run unchanged. *)
  let stats =
    Stage.run ?cache ~telemetry ~jobs ~name:"kb" ~key:(corpus_key config)
      ~size:n ~artifact:Kb.stats_artifact (fun () ->
        (* Fleet first (workers checkpoint every shard into the shared
           cache), then the resumed fold merges them in shard order —
           and rebuilds any shard the fleet left behind. *)
        kb_fleet := fleet "kb";
        let stats, outcome =
          kb_fold ?cache:checkpoints ~telemetry
            ?on_shard:(on_shard "kb") config ~load ~shard_size
        in
        kb_fold_outcome := outcome;
        stats)
  in
  let kb = Kb.finalize ~provider:config.provider stats in
  let mine_fold_outcome = ref Shard_stream.no_shards in
  let mine_fleet = ref no_fleet in
  let mined =
    Stage.run ?cache ~telemetry ~jobs ~name:"mine" ~key:(mine_key config)
      ~artifact:Candidate.list_artifact (fun () ->
        mine_fleet := fleet "mine";
        let count =
          Miner.count_tables ~provider:config.provider ~jobs config.mining kb
        in
        let tables, outcome =
          Shard_stream.fold ?cache:checkpoints ~telemetry
            ?on_shard:(on_shard "mine") ~stage:"shard-mine"
            ~key:(shard_mine_key config) ~write:Miner.write_tables
            ~read:Miner.read_tables ~load ~count ~merge:Miner.merge_tables
            ~init:(count []) ~total:n ~shard_size ()
        in
        mine_fold_outcome := outcome;
        Miner.emit_tables config.mining kb tables)
  in
  let filtered, llm_refined, llm_rejected, candidates =
    refine ~telemetry config mined
  in
  {
    s_config = config;
    s_shard_size = shard_size;
    s_kb = kb;
    s_mined = mined;
    s_filtered = filtered;
    s_llm_refined = llm_refined;
    s_llm_rejected = llm_rejected;
    s_candidates = candidates;
    s_kb_fold = !kb_fold_outcome;
    s_mine_fold = !mine_fold_outcome;
    s_kb_fleet = !kb_fleet;
    s_mine_fleet = !mine_fleet;
    s_cache_stats = cache_stats_of cache;
  }

let mine_streamed ?(config = default_config) ?telemetry ?(workers = 1)
    ?worker_command ?progress ~shard_size () =
  let telemetry = Option.value telemetry ~default:Telemetry.null in
  mine_folds ~config ~telemetry ~workers ~worker_command ~progress
    ~load:(shard_load config) ~shard_size

let mine_only ?(config = default_config) ?telemetry () =
  let telemetry = Option.value telemetry ~default:Telemetry.null in
  (* The corpus is generated and materialized whole: validation needs
     it as its donor pool, and the folds count it as a single shard. *)
  let projects =
    spanned telemetry "corpus" (fun () ->
        generate config ~lo:0 ~hi:config.corpus_size)
  in
  let programs =
    spanned telemetry "materialize" (fun () ->
        let programs = materialize config projects in
        Telemetry.count telemetry "materialize.programs" (List.length programs);
        programs)
  in
  let s =
    mine_folds ~config ~telemetry ~workers:1 ~worker_command:None
      ~progress:None
      ~load:(fun ~lo:_ ~hi:_ -> programs) (* the plan's one range: [0, n) *)
      ~shard_size:0
  in
  {
    config;
    projects;
    corpus = List.map2 (fun p prog -> (p.Generator.pname, prog)) projects programs;
    kb = s.s_kb;
    mined = s.s_mined;
    filtered = s.s_filtered;
    llm_refined = s.s_llm_refined;
    llm_rejected = s.s_llm_rejected;
    candidates = s.s_candidates;
    validation = empty_validation;
    final_checks = [];
    counterexample_fps = [];
    engine_stats = Engine_stats.empty;
    cache_stats = s.s_cache_stats;
  }

let run ?(config = default_config) ?telemetry () =
  let telemetry = Option.value telemetry ~default:Telemetry.null in
  let a = mine_only ~config ~telemetry () in
  let engine =
    Engine.create ~provider:config.provider ~config:config.engine ()
  in
  let deploy = Engine.oracle engine in
  let deploy_batch = Engine.oracle_batch ~jobs:config.jobs engine in
  let validation =
    spanned telemetry "validate" (fun () ->
        engine_delta telemetry engine (fun () ->
            Scheduler.run ~config:config.scheduler ~telemetry ~jobs:config.jobs
              ~deploy_batch ~provider:config.provider ~kb:a.kb ~corpus:a.corpus
              ~deploy a.candidates))
  in
  let final_checks, counterexample_fps =
    spanned telemetry "counterexample" (fun () ->
        engine_delta telemetry engine (fun () ->
            let kept, exposed =
              Scheduler.counterexample_pass ~jobs:config.jobs
                ~provider:config.provider ~corpus:a.corpus ~deploy
                validation.Scheduler.validated
            in
            Telemetry.count telemetry "counterexample.kept" (List.length kept);
            Telemetry.count telemetry "counterexample.exposed_fps"
              (List.length exposed);
            (kept, exposed)))
  in
  {
    a with
    validation;
    final_checks;
    counterexample_fps;
    engine_stats = Engine.stats engine;
  }

type violation_report = {
  project : string;
  check : Check.t;
  resources : Zodiac_iac.Resource.id list;
}

let scan ~provider ~checks ~corpus =
  let defaults = Arm.defaults provider in
  let compiled = List.map Eval.compile checks in
  List.concat_map
    (fun (project, prog) ->
      let graph = Graph.build prog in
      List.concat_map
        (fun c ->
          List.map
            (fun assignment ->
              { project; check = Eval.check c; resources = List.map snd assignment })
            (Eval.violations ~defaults graph c))
        compiled)
    corpus
