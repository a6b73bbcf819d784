(** Content-fingerprint scan cache for the resident daemon.

    Re-scanning an unchanged file must be a table lookup, not a
    recompile: each scan result is keyed by
    [fingerprint (mode, registry fingerprint, source bytes)], where the
    registry fingerprint folds in every check's id, message and printed
    spec — so a changed file, a different input mode (HCL vs. plan
    JSON), or a different check set all miss, and a hit returns
    findings that serialize to byte-identical SARIF.

    Findings are cached path-stripped ([file = ""]) and the caller's
    path is reattached on lookup, so the same content scanned under two
    paths shares one entry without leaking the first requester's path.

    The cache is a bounded in-memory LRU ({!Zodiac_engine.Memo})
    optionally backed by the persistent {!Zodiac_util.Cache} store
    (stage ["scan"]), and is safe to share across server domains: all
    operations take an internal mutex. *)

type t

val create :
  ?capacity:int ->
  ?disk:Zodiac_util.Cache.t ->
  checks:Scan.check_entry list ->
  unit ->
  t
(** [capacity] bounds the in-memory LRU (default 4096 entries). [disk]
    adds write-through persistence so a restarted daemon starts warm. *)

val find :
  t ->
  ?tag:string ->
  mode:string ->
  file:string ->
  string ->
  Sarif.finding list option
(** Lookup by source bytes; [mode] tags the input language (["hcl"] or
    ["plan"]), [tag] the resolved provider (its fingerprint — content
    scanned under two providers never shares an entry), [file] is
    reattached to the cached findings. Counts a hit or a miss. *)

val add : t -> ?tag:string -> mode:string -> string -> Sarif.finding list -> unit
(** Remember a successful scan of the given source bytes. *)

val scan :
  t ->
  ?tag:string ->
  mode:string ->
  file:string ->
  string ->
  (unit -> (Sarif.finding list, string) result) ->
  (Sarif.finding list * string, string) result
(** [scan t ?tag ~mode ~file src scanner]: cached lookup, else run
    [scanner] and cache its findings. The source is fingerprinted once;
    on success the findings come back with that key, which is
    {!fingerprint} of the same arguments. Errors are never cached — a
    failed scan re-runs next time. *)

val fingerprint : t -> ?tag:string -> mode:string -> string -> string
(** The cache key of the given source bytes under [mode] — the
    ETag-style validator scan responses expose as
    [content_fingerprint], so clients can recognize unchanged content
    without resending it. Stable for a fixed (content, mode, provider
    tag, check registry) tuple. *)

val hits : t -> int
val misses : t -> int

val entries : t -> int
(** Current in-memory entry count. *)
