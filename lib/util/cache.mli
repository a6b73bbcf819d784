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
    crashed run never leaves a half-written entry behind. That also
    lets several processes share one directory: the [mine --workers]
    fleet writes disjoint shard checkpoints into it, and each entry
    appears whole or not at all. All failures to write (read-only dir,
    disk full) are swallowed: the cache is an accelerator, never a
    correctness dependency. *)

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
