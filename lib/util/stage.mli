(** The runner for the cacheable pipeline stages.

    The cacheable Figure-2 artifacts (the KB statistics and the mined
    candidate set) are outputs folded shard by shard over the corpus
    (typically a {!Shard_stream.fold}). {!run} applies every
    cross-cutting concern to such a fold uniformly: warm-cache
    lookup/write, the job-count note and a {!Telemetry} span with
    cache/parallel counters.

    {b Determinism.} [run] returns either the fold's result or a cached
    artifact decoded from a sealed {!Codec} envelope, byte-identical by
    the monoid contract of the fold (per-index PRNG streams, exact count
    merges). Telemetry observes; it never alters the artifact. *)

type 'a artifact = {
  write : Codec.sink -> 'a -> unit;
  read : Codec.src -> 'a;
}
(** A codec pair for the stage's output. The [read]er may raise
    {!Codec.Corrupt}; {!Cache.find} turns that into a miss. *)

val run :
  ?cache:Cache.t ->
  ?telemetry:Telemetry.t ->
  ?jobs:int ->
  name:string ->
  key:string ->
  ?size:int ->
  artifact:'a artifact ->
  (unit -> 'a) ->
  'a
(** [run ~name ~key ?size ~artifact fold] executes one stage. [name] is
    the cache stage namespace and the telemetry span name; [key] is a
    {!Codec.fingerprint} of every input the artifact depends on, and
    with [size] it forms the artifact's cache address. An exact entry at
    that address loads directly; otherwise [fold ()] runs and its result
    is stored there (a fold over checkpointed shards, stored under their
    own stage namespace, re-counts only unfinished shards). Without a
    [cache], [fold ()] always runs and nothing is stored.

    Inside a telemetry span named [name] the runner records:
    - note ["jobs"]: the resolved job count (without [?jobs],
      {!Parallel.recommended_jobs});
    - note ["source"]: where the artifact came from — ["uncached"] (no
      cache), ["warm"] (exact cache hit) or ["streamed"] (folded over
      shards, resuming from whatever checkpoints existed);
    - counters [cache.hits]/[cache.misses]/[cache.writes]: this
      stage's {!Cache.stats} delta;
    - counter [parallel.chunks]: the {!Parallel.chunks_scheduled}
      delta — scheduling metadata that varies with hardware, excluded
      from determinism comparisons. *)
