(** Deterministic pseudo-random number generation.

    Zodiac's corpus generation, mining and validation experiments must be
    reproducible run-to-run, so every randomized component threads an
    explicit generator state instead of relying on global randomness.
    The implementation is SplitMix64 (Steele et al., OOPSLA'14), which is
    fast, has a 64-bit state, and supports cheap splitting. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val derive : int -> int -> t
(** [derive seed index] is an independent stream determined only by
    [(seed, index)] — no sequential threading through a parent generator —
    so work item [index] can build its own generator on any domain and the
    result is identical to a sequential run. *)

val copy : t -> t
(** [copy t] duplicates the state; both copies evolve independently. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. *)

val next64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val choose_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val weighted : t -> (int * 'a) list -> 'a
(** [weighted t items] picks proportionally to the integer weights.
    Requires at least one positive weight. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val shuffle_list : t -> 'a list -> 'a list
(** Functional shuffle. *)

val sample : t -> int -> 'a list -> 'a list
(** [sample t k xs] draws [min k (length xs)] distinct elements. *)
