(** Checkpointed folds over fixed-size shards of an indexed corpus.

    The streaming counterpart of the warm-start cache: instead of
    materializing all [total] items and counting them in one pass, a
    stream loads items shard by shard ([load ~lo ~hi]), counts each
    shard into a mergeable monoid value ([count]), folds the per-shard
    values in shard order ([merge]) and drops the shard before loading
    the next one — peak memory is one shard of items plus the
    accumulated tables, independent of [total].

    Every completed shard's counted value checkpoints through {!Cache}
    under a key derived from [(key, lo, hi)], so a killed run resumes
    from the last finished shard: on the next run, checkpointed shards
    are loaded (never re-generated, never re-counted) and only the
    unfinished ones are rebuilt. A corrupted or stale checkpoint reads
    back as a miss and that shard is rebuilt — the PR-3 corruption
    guarantee, per shard. {!fold_worker} is the multi-process side: a
    worker process checkpoints one fixed slice of the plan and never
    merges; the parent's {!fold} then merges every checkpoint.

    Correctness contract: [merge] must be an exact monoid over
    contiguous groupings — [fold] with any [shard_size] (and any mix of
    resumed and rebuilt shards) produces a result equal to counting all
    items at once. All the Zodiac counting tables (KB stats, miner
    intra/indexed/pair/num-range/inter families) satisfy this by
    integer addition, (min, max, sum) or (max, sum) merges. *)

type outcome = {
  shards : int;  (** shards in the plan *)
  resumed : int;  (** loaded from a checkpoint, not re-counted *)
  built : int;  (** loaded, counted and checkpointed this run *)
}

val no_shards : outcome
(** [{ shards = 0; resumed = 0; built = 0 }] — the outcome of a fold
    that never ran (e.g. its downstream artifact was already cached). *)

val plan : total:int -> shard_size:int -> (int * int * int) list
(** [(index, lo, hi)] triples covering [0, total) in order, each
    spanning at most [shard_size] items ([shard_size <= 0] is treated
    as one single shard; [total <= 0] yields an empty plan). *)

val shard_key : key:string -> lo:int -> hi:int -> string
(** The checkpoint cache key of the shard [\[lo, hi)] under the
    stream-wide [key] — exposed so tests and benches can address
    individual checkpoint entries. *)

val fold :
  ?cache:Cache.t ->
  ?telemetry:Telemetry.t ->
  ?on_shard:(index:int -> shards:int -> built:bool -> unit) ->
  stage:string ->
  key:string ->
  write:(Codec.sink -> 'b -> unit) ->
  read:(Codec.src -> 'b) ->
  load:(lo:int -> hi:int -> 'a) ->
  count:('a -> 'b) ->
  merge:('b -> 'b -> 'b) ->
  init:'b ->
  total:int ->
  shard_size:int ->
  unit ->
  'b * outcome
(** Fold the shard plan. Per shard: probe the checkpoint
    [(stage, shard_key ~key ~lo ~hi)] — on a hit merge the stored
    value, otherwise [load], [count], checkpoint and merge. The first
    shard's value seeds the accumulator ([merge] may mutate it); [init]
    is the result of an empty plan. [key] must
    fingerprint everything a shard's counted value depends on besides
    its own [\[lo, hi)] range (corpus identity, counting configuration,
    any whole-corpus context such as a finalized KB).

    [telemetry] receives the [shard.*] counters ([shard.total],
    [shard.resumed], [shard.built], [shard.items] — items loaded for
    rebuilt shards) in the caller's current span, so a stage's span
    times its own counting. Without a [cache] the fold still streams
    (bounded memory) but nothing checkpoints. A full major collection
    follows each shard of a multi-shard plan (on OCaml 5.1 [Gc.compact]
    compacts nothing), so the next shard reuses the freed space; with
    the caller's GC pacing, peak memory stays near one shard plus the
    accumulator.
    [on_shard] fires after each shard merges (with [built = false] for
    a checkpoint resume) — a progress hook, never part of results. *)

val fold_worker :
  cache:Cache.t ->
  slice:int * int ->
  stage:string ->
  key:string ->
  write:(Codec.sink -> 'b -> unit) ->
  load:(lo:int -> hi:int -> 'a) ->
  count:('a -> 'b) ->
  total:int ->
  shard_size:int ->
  unit ->
  int
(** The multi-process side of the stream. With [slice = (k, n)],
    checkpoint every shard of the plan whose index is [k] mod [n] and
    that has no checkpoint yet ({!Cache.mem}), then return how many
    shards it built. It never merges, never waits and never looks at
    other workers: [n] workers given slices [0/n … (n-1)/n] partition
    the plan, so each shard is built by exactly one of them. Raises
    [Invalid_argument] unless [0 <= k < n].

    The caller (the parent orchestration) must still run {!fold} to
    merge the checkpoints. That fold is the merge pass, and it rebuilds
    inline any shard no worker finished, so completion never depends
    on worker survival. *)
