(** The resident daemon state: everything a one-shot scan pays for on
    every invocation — the compiled check registry (ground truth or a
    validated check set), the deployment engine with its α-canonical
    memo cache, a warm-start {!Zodiac_util.Cache} handle, and the
    content-fingerprint {!Scan_cache} — loaded once at [create] and
    shared by every connection.

    One session serves all concurrent connections, so its mutable
    surface is lock-partitioned: request/connection counters behind a
    state mutex, the deployment engine (whose memo table is not
    thread-safe) behind an engine mutex, and the scan cache locking
    internally. Request handling stays deterministic over that state
    plus the filesystem: the same request sequence against the same
    files produces the same response bytes, which is what makes the
    daemon byte-equivalent to the one-shot CLI — scan results come
    from the content-fingerprint cache only when the source bytes and
    check registry both match, so a hit is byte-identical to a fresh
    scan by construction. Directory and batch scans fan their per-file
    work onto the {!Zodiac_util.Parallel} domain pool.

    What the session keeps of its traffic is fixed-size: per verb, a
    request count, an error count and a log2-µs latency histogram
    ({!latency_json}), beside the scalar counters [stats] reports.
    Memory therefore grows with the number of verbs, not with the
    number of requests; past that, the session holds the check
    registry, the engine memo and the scan cache, both capacity-bounded
    LRUs. It keeps no {!Zodiac_util.Telemetry} recorder, whose closed
    spans would pile up in a resident process. *)

type config = {
  provider : Zodiac_provider.Provider.t;
      (** session default backend. Each scan/validate request still
          resolves its own provider from the source's resource-type
          prefixes ({!Zodiac_providers.Providers.detect_source}); this
          is the fallback when no prefix matches, the engine's backend,
          and the provider named by [stats]/[list_checks]. *)
  checks_file : string option;
      (** validated check set to scan with; [None] = the resolved
          provider's ground truth *)
  cache_dir : string option;
      (** warm-start cache to keep resident; also persists the scan
          cache so a restarted daemon starts warm *)
  jobs : int;  (** domain-pool width for batched directory scans *)
  timestamps : bool;
      (** stamp SARIF invocations with wall-clock UTC time; off by
          default so responses are byte-stable *)
  engine : Zodiac_engine.Engine.config;  (** [validate]'s engine *)
}

val default_config : config

type t

val create : config -> (t, string) result
(** Load checks, open the cache, build the engine. [Error] when the
    check-set file is missing or malformed. *)

val checks : t -> Scan.check_entry list

val latency_json : t -> Zodiac_util.Json.t
(** The [latency_us] member of [stats], and what [zodiac serve --trace]
    writes at exit: one member per verb with a completed request, in
    verb-name order, each
    [{"count", "errors", "p50", "p99", "buckets"}]. [count] is the
    completed requests (every reply, errors included), [errors] those
    answered with an error. Bucket [i] counts requests that took at
    least [2^(i-1)] and fewer than [2^i] µs, named by that exclusive
    upper bound; 24 buckets, the last open-ended (bound [null], 2^22 µs
    ≈ 4.2 s and up). [buckets] lists the non-empty ones as
    [[bound, n]] pairs; [p50]/[p99] are the bounds of the buckets
    holding those nearest-rank percentiles. *)

val utc_now : unit -> string
(** RFC-3339 UTC wall-clock time — the [--timestamps] stamp. Shared
    with the CLI so both front ends format timestamps identically. *)

val stopping : t -> bool
(** Set once a [shutdown] request has been handled. Safe to poll from
    any domain. *)

val connection_opened : t -> unit
(** Transport hook: a connection was admitted ([connections_active]
    and [connections_total] in [stats]). *)

val connection_closed : t -> unit
(** Transport hook: an admitted connection finished. *)

val set_queue_depth : t -> int -> unit
(** Transport hook: current admission-queue depth ([queue_depth] in
    [stats]). *)

val handle_extra :
  ?deadline_ms:int ->
  t ->
  Protocol.verb ->
  (Zodiac_util.Json.t * (string * Zodiac_util.Json.t) list, Protocol.error)
  result
(** Like {!handle}, additionally returning envelope extras — response
    members the transport places beside ["result"], never inside it
    (the SARIF payload must stay byte-identical to the one-shot CLI).
    Today that is [content_fingerprint] on [scan_file] and
    [scan_terraform_plan]: the {!Scan_cache} key of the scanned bytes,
    an ETag-style validator clients can remember to skip resending
    unchanged content. *)

val handle :
  ?deadline_ms:int ->
  t ->
  Protocol.verb ->
  (Zodiac_util.Json.t, Protocol.error) result
(** Execute one request against the resident state. Never raises:
    handler exceptions surface as [internal_error]. [scan_file]'s
    result is the SARIF document itself — the same JSON value the
    one-shot CLI prints.

    [deadline_ms] is enforced while the request runs: scan and
    validate handlers probe a deadline checkpoint at their natural
    work boundaries (between check evaluations, between files, before
    a deployment) and an over-deadline request abandons its remaining
    work, discards partial findings before any counter or cache
    records them, and returns a [deadline_exceeded] error. A
    post-dispatch check backstops verbs with no checkpoints; when that
    backstop fires the work already ran to completion, so counters and
    the scan cache have recorded it — only the response is replaced
    (and [errors] bumped, matching the in-flight path). *)
