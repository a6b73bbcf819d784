(** Deterministic domain pool over stdlib [Domain].

    OCaml 5 gives us true shared-memory parallelism but no batteries-included
    pool (the container has no domainslib), so Zodiac carries its own. The
    design goal is stronger than "fast": every combinator here is
    {b deterministic} — the result is bit-identical to the sequential
    ([jobs = 1]) execution regardless of how many domains run or how the
    scheduler interleaves them. That is what lets the pipeline expose a
    [--jobs] knob while keeping reproducibility guarantees (same seed, same
    artifacts) intact.

    The contract is achieved by (1) splitting the input into contiguous
    chunks with a fixed chunk boundary computation that does not depend on
    [jobs]-relative scheduling, (2) writing each result into a preallocated
    slot indexed by input position, and (3) merging chunk results strictly in
    chunk-index order. Worker functions must therefore be pure up to their
    own local state: they may allocate and mutate private structures, but
    must not race on shared mutable state.

    Exceptions raised by worker functions are re-raised in the calling
    domain. When several chunks fail, the exception of the {e lowest-indexed}
    failing input wins, again independent of scheduling.

    Work runs on the calling domain plus persistent helper domains:
    [recommended_jobs () - 1] of them, spawned by the first call that
    wants a second domain and kept until the process exits (an idle
    helper blocks on a condition variable; it uses no CPU and does not
    delay exit). A call uses at most [jobs - 1] helpers. One call holds
    the helpers at a time: a call made from inside a chunk (a nested
    map), or from another domain while a call is running (two daemon
    clients scanning at once), runs its chunks in the calling domain.
    By the contract above that is invisible in results.

    The small-input cutoff counts {e elements}: an input shorter than 8
    items runs in the calling domain, and nothing ever uses more
    domains than {!recommended_jobs}, so asking for [jobs = 8] on a
    small input or a small machine costs nothing over [jobs = 1]. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()], clamped to at least 1. The
    default for every [?jobs] argument in the pipeline. *)

val chunks_scheduled : unit -> int
(** Monotone count of chunks handed to workers since program start,
    across every combinator. Telemetry snapshots it around a stage to
    report the stage's scheduling granularity. {b Scheduling metadata
    only}: the value depends on [jobs] and the host's domain count, so
    it must never feed into artifacts or determinism checks. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs], computed on up to [jobs] domains.
    Output order always matches input order. [jobs <= 1] (or a short input)
    runs sequentially in the calling domain with no spawns. *)

val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** [mapi ~jobs f xs] is [List.mapi f xs] with the same guarantees as
    {!map}. The index passed to [f] is the element's position in [xs],
    independent of chunking. *)

val map_chunks : ?jobs:int -> ('a list -> 'b) -> 'a list -> 'b list
(** [map_chunks ~jobs f xs] splits [xs] into one contiguous slice per
    domain it uses (up to [jobs], as {!map} clamps it) and returns [f]
    of each slice, in order; the slices concatenate back to [xs], none
    is empty, and their boundaries depend only on [List.length xs] and
    the number of slices. For shard-merge callers (KB build, miner
    counting) that want one private accumulator per domain rather than
    per element: merging the results in order must give the same value
    for any slicing. [map_chunks f []] is [[]]. *)
