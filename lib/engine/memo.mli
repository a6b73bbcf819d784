(** Bounded LRU memoization of deployment outcomes.

    Keys are canonical program fingerprints ({!Fingerprint.canonical});
    values are whatever the engine chooses to remember (genuine
    {!Zodiac_cloud.Arm.outcome}s — transient faults are never cached).
    Capacity-bounded with least-recently-used eviction, and
    instrumented with hit/miss/eviction counters for the engine stats
    record.

    Recency is a doubly linked list threaded through the entries, most
    recently used first: a hit or an insert moves its entry to the
    front and an eviction drops the last, each in O(1) however full
    the memo is. A hit allocates nothing. {!mem} and misses leave the
    order alone. Not thread-safe: callers that share a memo across
    domains lock around it, as the daemon's scan cache does. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Default capacity 8192 entries. Capacity [>= 1] enforced. *)

val find : 'a t -> string -> 'a option
(** Lookup; refreshes recency and counts a hit or a miss. *)

val add : 'a t -> string -> 'a -> unit
(** Insert or overwrite; evicts the least recently used entry when the
    cache is full. *)

val mem : 'a t -> string -> bool
(** Recency- and counter-neutral membership test. *)

val length : 'a t -> int
val capacity : 'a t -> int
val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int

val clear : 'a t -> unit
(** Drop all entries; counters are preserved. *)
