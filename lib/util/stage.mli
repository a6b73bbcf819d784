(** First-class pipeline stages.

    The cacheable Figure-2 artifacts (the KB statistics and the mined
    candidate set) are outputs folded shard by shard over the corpus
    (typically a {!Shard_stream.fold}). A {!t} bundles what such a
    stage {e is} — a name, a cache address and codec for its artifact,
    and the fold that builds it — and {!run} applies every
    cross-cutting concern uniformly: warm-cache lookup/write, job-count
    plumbing and a {!Telemetry} span with cache/parallel counters.

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

type 'a t = {
  name : string;
      (** Cache stage namespace and telemetry span name; one of the
          Figure-2 stage names in the pipeline. *)
  key : string;
      (** A {!Codec.fingerprint} of every input the artifact depends
          on; with [size] it forms the artifact's cache address. *)
  size : int option;
  artifact : 'a artifact;
  stream : cache:Cache.t option -> telemetry:Telemetry.t -> jobs:int -> 'a;
      (** The fold. It receives the cache and telemetry so that its
          per-shard checkpoints (stored under their own stage namespace)
          let it re-count only unfinished shards; [cache = None] when
          the runner has no cache — it must still fold, just without
          checkpoints. *)
}

val streamed :
  name:string ->
  key:string ->
  ?size:int ->
  artifact:'a artifact ->
  (cache:Cache.t option -> telemetry:Telemetry.t -> jobs:int -> 'a) ->
  'a t

val run : ?cache:Cache.t -> ?telemetry:Telemetry.t -> ?jobs:int -> 'a t -> 'a
(** Execute the stage: an exact entry at [(key, size?)] loads directly;
    otherwise [stream] runs and its result is stored at [(key, size?)].
    Inside a telemetry span named [t.name] the runner records:
    - note ["jobs"]: the resolved job count handed to [stream];
    - note ["source"]: where the artifact came from — ["uncached"] (no
      cache), ["warm"] (exact cache hit) or ["streamed"] (folded over
      shards, resuming from whatever checkpoints existed);
    - counters [cache.hits]/[cache.misses]/[cache.writes]: this
      stage's {!Cache.stats} delta;
    - counter [parallel.chunks]: the {!Parallel.chunks_scheduled}
      delta — scheduling metadata that varies with hardware, excluded
      from determinism comparisons.

    Without [?jobs] the fold runs with {!Parallel.recommended_jobs}. *)
