(** Compact, versioned binary serialization for cached artifacts.

    The cache stores pipeline-stage outputs (corpus projects, KB
    statistics, mined candidates) on disk between runs, so the format
    must be (a) exact — floats round-trip through their IEEE-754 bits,
    ints through a lossless rotated varint — and (b) self-invalidating:
    every sealed buffer carries a magic tag, the codec {!version}, a
    stage name and a payload checksum, and {!decode} refuses anything
    that does not match. A stale or corrupted cache entry therefore
    degrades into a cache miss, never into a wrong artifact.

    Writers append to a {!sink}; readers consume a {!src} and raise
    {!Corrupt} on malformed input ({!decode} catches it). *)

type sink
(** An append-only output buffer. *)

type src
(** An input cursor over immutable bytes. *)

exception Corrupt of string
(** Raised by readers on malformed input. {!decode} turns it into
    [Error _]; readers used directly must be wrapped by the caller. *)

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** [corrupt fmt ...] raises {!Corrupt} with a formatted message. *)

val version : int
(** Bumped whenever any serialized layout changes; {!decode} rejects
    buffers sealed under a different version. *)

val sink : unit -> sink
val contents : sink -> string
val src_of_string : string -> src

(** {1 Primitive writers and readers}

    Every [write_x]/[read_x] pair round-trips exactly. *)

val write_byte : sink -> int -> unit
(** Low byte only; used for constructor tags. *)

val read_byte : src -> int

val write_bool : sink -> bool -> unit
val read_bool : src -> bool

val write_int : sink -> int -> unit
(** Rotated-zigzag LEB128: lossless for every native [int], one byte
    for small magnitudes. *)

val read_int : src -> int

val write_float : sink -> float -> unit
(** The raw IEEE-754 bits ({!Int64.bits_of_float}), so confidence/lift
    statistics reload bit-identically. *)

val read_float : src -> float

val write_string : sink -> string -> unit
val read_string : src -> string

val write_option : (sink -> 'a -> unit) -> sink -> 'a option -> unit
val read_option : (src -> 'a) -> src -> 'a option

val write_list : (sink -> 'a -> unit) -> sink -> 'a list -> unit
(** Length-prefixed; preserves order. *)

val read_list : (src -> 'a) -> src -> 'a list

val write_table :
  (sink -> 'k -> unit) -> (sink -> 'v -> unit) -> sink -> ('k, 'v) Hashtbl.t -> unit
(** Rows sorted by polymorphic compare on the key, so equal tables
    serialize to equal bytes regardless of insertion order (cache
    entries are reproducible). Keys must not contain functional
    values. *)

(** {1 Typed codecs}

    A writer and its reader as one value, so a layout is spelled once
    and both directions agree by construction. Combinators write their
    components in order with no framing: [pair int string] produces
    exactly the bytes of [write_int] followed by [write_string]. *)

type 'a t = { write : sink -> 'a -> unit; read : src -> 'a }

val int : int t
val bool : bool t
val string : string t

val conv : ('a -> 'b) -> ('b -> 'a) -> 'b t -> 'a t
(** [conv encode decode c] codes ['a] through its image in ['b]. *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val quad : 'a t -> 'b t -> 'c t -> 'd t -> ('a * 'b * 'c * 'd) t

val quint :
  'a t -> 'b t -> 'c t -> 'd t -> 'e t -> ('a * 'b * 'c * 'd * 'e) t

val table : 'k t -> 'v t -> ('k, 'v) Hashtbl.t t
(** Rows in canonical key order, as {!write_table} writes them. *)

(** {1 Sealed envelopes} *)

val encode : stage:string -> (sink -> unit) -> string
(** [encode ~stage fill] runs [fill] on a fresh sink and seals the
    payload with magic, {!version}, [stage] and an FNV-1a checksum. *)

val decode : stage:string -> string -> (src -> 'a) -> ('a, string) result
(** Verify the envelope (magic, version, stage, checksum) and run the
    reader on the payload. Any mismatch or {!Corrupt} from the reader
    yields [Error]. *)

val fingerprint : string list -> string
(** Deterministic hex digest of the given parts (order-sensitive,
    injective on the part list) — the cache-key helper. *)
