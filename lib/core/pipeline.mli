(** The end-to-end Zodiac pipeline (Figure 2): crawl (synthesize) a
    corpus, build the semantic KB, mine hypothesized checks, filter
    them statistically, complete quantitative checks through the LLM
    oracle, validate by deployment-based testing, and run the
    counterexample pass. *)

type config = {
  provider : Zodiac_provider.Provider.t;
      (** the cloud backend everything runs against: its schemas and
          scenarios shape the corpus, its ground truth drives the
          simulator, and its fingerprint is part of every cache key.
          Default {!Zodiac_providers.Providers.default} (Azure). *)
  corpus_seed : int;
  corpus_size : int;
  violation_rate : float;
  oracle_seed : int;
  oracle_error_rate : float;
  jobs : int;
      (** domains used for the parallel phases (corpus generation, KB
          build, mining, validation batches). Every artifact is
          bit-identical for every [jobs] value; the default is
          {!Zodiac_util.Parallel.recommended_jobs}. *)
  cache_dir : string option;
      (** warm-start cache directory ([None] = caching off, the
          default). Cold runs write the KB-statistics and
          mined-candidate entries there, plus one checkpoint per shard
          when {!mine_streamed} folds more than one shard; warm runs
          load them with byte-identical artifacts, and a grown corpus
          re-counts only the shards it has not checkpointed. Keys cover
          the stage inputs (provider fingerprint, seed, violation-rate
          bits, corpus size, mining config) and the
          {!Zodiac_util.Codec.version}; anything stale or corrupt
          decodes as a miss and the stage rebuilds cold. *)
  mining : Zodiac_mining.Miner.config;
  thresholds : Zodiac_mining.Filter.thresholds;
  scheduler : Zodiac_validation.Scheduler.config;
  engine : Zodiac_engine.Engine.config;
      (** deployment-execution engine: memo cache, retry client,
          optional fault injection *)
}

val default_config : config
(** 1200 projects, 4% injected violations, default thresholds. *)

val quick_config : config
(** A small configuration for tests and examples (300 projects). *)

type artifacts = {
  config : config;
  projects : Zodiac_corpus.Generator.project list;
  corpus : (string * Zodiac_iac.Program.t) list;  (** materialized *)
  kb : Zodiac_kb.Kb.t;
  mined : Zodiac_mining.Candidate.t list;
  filtered : Zodiac_mining.Filter.outcome;
  llm_refined : Zodiac_spec.Check.t list;
  llm_rejected : int;
  candidates : Zodiac_spec.Check.t list;  (** deduplicated input to validation *)
  validation : Zodiac_validation.Scheduler.result;
  final_checks : Zodiac_spec.Check.t list;  (** after counterexample pass *)
  counterexample_fps : Zodiac_spec.Check.t list;
  engine_stats : Zodiac_engine.Stats.snapshot;
      (** deployment-engine accounting for the validation and
          counterexample passes ({!Zodiac_engine.Stats.empty} when
          validation did not run) *)
  cache_stats : Zodiac_util.Cache.stats;
      (** warm-start cache accounting for this run (all zero when
          [config.cache_dir] is [None]) *)
}

val deploy : provider:Zodiac_provider.Provider.t -> Zodiac_iac.Program.t -> bool
(** The raw deployment oracle: success of the simulated ARM
    deployment, no engine in between. [run] itself deploys through a
    {!Zodiac_engine.Engine} built from [config.engine]. *)

val run :
  ?config:config -> ?telemetry:Zodiac_util.Telemetry.t -> unit -> artifacts
(** Execute the whole pipeline. Deterministic for a given config.
    Mines exactly as {!mine_only} does, then validates against the
    materialized corpus.

    [telemetry] (default {!Zodiac_util.Telemetry.null}) records one
    span per Figure-2 stage — [corpus], [materialize], [kb], [mine],
    [filter], [oracle], [validate], [counterexample] — each carrying
    its parallel chunk counts; [kb] and [mine] add their cache
    hit/miss/write deltas and [shard.*] fold counts, and the
    deployment passes the engine's request/retry/fault/memo counters. Telemetry observes only: artifacts are byte-identical
    with or without it, and no wall-clock value can enter them (a
    clockless recorder never reads a clock at all). *)

val mine_only :
  ?config:config -> ?telemetry:Zodiac_util.Telemetry.t -> unit -> artifacts
(** Stop after filtering and interpolation (validation left empty);
    much faster, used by mining-phase experiments. Generates and
    materializes the corpus whole, then mines it through the same
    folds as {!mine_streamed} with a one-shard plan. *)

val corpus_key : config -> string
(** Content address of the generated corpus (seed and violation rate;
    size-independent) — also the [key] under which the streamed KB pass
    shards, checkpoints and claims (stage ["shard-kb"]). Exposed so
    benches can plant or inspect claim files for specific shards. *)

(** {2 Streaming shard pipeline}

    The bounded-memory way to mine corpora too large to materialize:
    projects are generated, default-materialized and counted shard by
    shard ({!Zodiac_util.Shard_stream}), and only the mergeable count
    tables accumulate — peak memory is one shard of programs plus the
    tables, independent of [corpus_size]. Two passes over the same
    shard stream: first the KB-statistics fold (finalized once
    complete), then the miner-table fold with the finalized KB fixed.
    {!mine_only} and {!run} run the same two passes over their
    in-memory corpus as one shard. When the plan has more than one
    shard, each completed shard checkpoints through the warm-start
    cache (stages ["shard-kb"]/["shard-mine"]), so a killed run resumes
    by re-counting only unfinished shards. The final ["kb"]/["mine"]
    artifacts are byte-identical for every shard size and [jobs]
    value, and share their cache addresses with {!mine_only}. *)

type mproc = {
  m_workers : int;  (** worker processes spawned for the pass *)
  m_claimed : int;  (** shard claims won across the fleet *)
  m_built : int;  (** shards counted and checkpointed by workers *)
  m_stolen : int;  (** claims taken over from stale holders *)
  m_waits : int;  (** poll sleeps spent waiting on siblings *)
  m_failed : int;  (** workers that died or reported no summary *)
}
(** Aggregated worker-fleet accounting for one streamed pass
    ({!no_fleet} when the pass ran single-process or was warm). *)

val no_fleet : mproc

type streamed = {
  s_config : config;
  s_shard_size : int;
  s_kb : Zodiac_kb.Kb.t;
  s_mined : Zodiac_mining.Candidate.t list;
  s_filtered : Zodiac_mining.Filter.outcome;
  s_llm_refined : Zodiac_spec.Check.t list;
  s_llm_rejected : int;
  s_candidates : Zodiac_spec.Check.t list;
  s_kb_fold : Zodiac_util.Shard_stream.outcome;
      (** KB-statistics pass accounting ({!Zodiac_util.Shard_stream.no_shards}
          when the final KB artifact was already cached) *)
  s_mine_fold : Zodiac_util.Shard_stream.outcome;
      (** miner-table pass accounting, same convention *)
  s_kb_mproc : mproc;  (** KB-pass worker fleet ({!no_fleet} when none) *)
  s_mine_mproc : mproc;  (** mine-pass worker fleet, same convention *)
  s_cache_stats : Zodiac_util.Cache.stats;
}

val mine_streamed :
  ?config:config ->
  ?telemetry:Zodiac_util.Telemetry.t ->
  ?workers:int ->
  ?worker_command:(string -> string array) ->
  ?progress:(pass:string -> index:int -> shards:int -> built:bool -> unit) ->
  shard_size:int ->
  unit ->
  streamed
(** Mine in bounded memory: [mined]/[filtered]/[candidates] equal
    {!mine_only}'s for the same config, byte for byte ([shard_size <= 0]
    counts everything as one shard). Telemetry records the same
    [kb]/[mine]/[filter]/[oracle] spans, with [shard.*] counters inside
    the streamed stages. Without [config.cache_dir] the run still
    streams, but nothing checkpoints; a one-shard plan never
    checkpoints, and runs without the bounded-memory GC pacing.

    With [workers > 1], a [worker_command] and a plan of more than one
    shard (all required — otherwise the fleet is inert), each streamed
    pass first spawns that many child
    processes running [worker_command pass] (the argv of a re-exec of
    the current binary in worker mode, [pass] being ["kb"] or
    ["mine"]), which race to claim and checkpoint shards into the
    shared [config.cache_dir] (see {!Zodiac_util.Shard_stream.fold_worker});
    the parent waits for the fleet, then its own resumed fold becomes
    the merge pass — combining the per-shard monoid checkpoints in
    shard order and rebuilding inline anything a killed worker left
    unfinished. Artifacts are byte-identical to [workers = 1] and to
    the one-shard plan for every [(workers, jobs, shard_size)]
    combination; fleets never spawn when the pass's final artifact is
    already cached. Fleet accounting lands in [s_kb_mproc]/
    [s_mine_mproc] and in [mproc.*] telemetry counters under the
    [mproc.kb]/[mproc.mine] spans.

    [progress] fires after each shard the parent merges — an
    observability hook (the CLI's tty progress lines), never part of
    results. *)

val mine_worker :
  ?config:config ->
  ?telemetry:Zodiac_util.Telemetry.t ->
  ?stale_after:float ->
  shard_size:int ->
  pass:[ `Kb | `Mine ] ->
  unit ->
  Zodiac_util.Shard_stream.worker_outcome
(** The child-process entry point behind the hidden CLI worker verb:
    checkpoint shards of [pass] into [config.cache_dir] (required —
    raises [Invalid_argument] without one) until every shard of the
    plan is checkpointed, claiming each through the cache's claim
    files; [stale_after] bounds how long a dead sibling's claim can
    block a shard. The [`Mine] pass loads the finalized KB from the
    shared cache (final artifact or checkpoint fold — complete by the
    time the parent spawns mine workers). Returns this worker's
    claim/build accounting; it never merges and never writes final
    artifacts. *)

val worker_summary : Zodiac_util.Shard_stream.worker_outcome -> string
(** The one-line summary a worker process prints on stdout
    ([mproc-worker claimed=… built=… stolen=… waits=…]) for the parent
    to aggregate. *)

val parse_worker_summary :
  string -> Zodiac_util.Shard_stream.worker_outcome option
(** Inverse of {!worker_summary} — exposed for benches that inspect a
    worker's own accounting. *)

type violation_report = {
  project : string;
  check : Zodiac_spec.Check.t;
  resources : Zodiac_iac.Resource.id list;
}

val scan :
  provider:Zodiac_provider.Provider.t ->
  checks:Zodiac_spec.Check.t list ->
  corpus:(string * Zodiac_iac.Program.t) list ->
  violation_report list
(** Apply validated checks to repositories (§5.5). *)
