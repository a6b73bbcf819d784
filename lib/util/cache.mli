(** Persistent content-addressed artifact store for warm-start runs.

    One directory, one file per entry. An entry is addressed by a
    [stage] name plus a [key] — a {!Codec.fingerprint} of everything
    the stage's output depends on — and optionally a [size] that joins
    the address (the KB statistics are keyed by corpus identity plus
    corpus size).

    Entries are sealed {!Codec} envelopes: a corrupted file, a stale
    codec version or a stage mismatch simply reads back as [None]
    (counted as a miss), so the caller always falls back to a cold
    rebuild. Writes go through a temp file and [Sys.rename], so a
    crashed run never leaves a half-written entry behind. All failures
    to write (read-only dir, disk full) are swallowed: the cache is an
    accelerator, never a correctness dependency. *)

type t

type stats = {
  hits : int;
  misses : int;
  writes : int;
  write_failures : int;  (** stores that failed (read-only dir, disk full) *)
}

val default_dir : string
(** [".zodiac-cache"] — the CLI default, kept out of version control. *)

val create : dir:string -> unit -> t
(** Open (creating directories as needed, best-effort) a cache rooted
    at [dir]. *)

val dir : t -> string

val find : ?size:int -> t -> stage:string -> key:string -> (Codec.src -> 'a) -> 'a option
(** Decode the entry for [(stage, key, size?)], or [None] (missing,
    corrupt, stale version — all count as misses). *)

val store : ?size:int -> t -> stage:string -> key:string -> (Codec.sink -> unit) -> unit
(** Atomically (re)write the entry for [(stage, key, size?)]. A failed
    write is swallowed (the cache is an accelerator, never a
    correctness dependency) but counted in [stats.write_failures]. *)

val mem : ?size:int -> t -> stage:string -> key:string -> bool
(** Whether an entry file exists for [(stage, key, size?)]. Cheap
    (no read, no decode) — the entry may still prove corrupt when
    decoded; only {!find} validates. *)

val stats : t -> stats
(** Hit/miss/write counters accumulated on this handle. *)

(** {2 Claim files}

    Advisory shard claims for multi-process mining: cooperating
    processes folding into the same cache directory use claim files to
    decide who builds which shard. A claim is created atomically
    ([O_CREAT|O_EXCL] — exactly one winner), released by unlink, and —
    when its holder was [kill -9]'d — taken over once it is older than
    a caller-chosen deadline, via an atomic rename-aside that admits
    exactly one contender to the re-create race.

    Claims are {e advisory}: they only arbitrate who does the work.
    Correctness never depends on them — artifact stores are atomic and
    deterministic, so a takeover racing a live holder at worst builds
    the same bytes twice. *)

type claim =
  | Claimed of { stolen : bool }
      (** the claim is ours; [stolen] when taken over from a stale
          holder rather than freshly created *)
  | Busy  (** another live process holds it *)

val try_claim : ?stale_after:float -> t -> name:string -> owner:string -> claim
(** Try to claim [name] for [owner] (an identifying string — embed the
    pid so owners are unique per process). With [stale_after], an
    existing claim older than that many seconds is taken over. *)

val release : t -> name:string -> unit
(** Drop the claim on [name] (idempotent, never fails). *)

val claim_path : t -> name:string -> string
(** On-disk path of [name]'s claim file — exposed for tests and for
    benches that inspect lingering claims after a kill. *)
