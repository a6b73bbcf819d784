(** Deterministic-by-default spans and counters for the staged pipeline.

    Every pipeline stage runs inside a {e span}; code inside the span
    attaches integer {e counters} (cache hits, deployments, retries,
    parallel chunk counts) and string {e notes} (warm/cold source,
    jobs). A recorder collects completed spans in order and can render
    them as JSON (the CLI's [--trace]) or an aligned table (the
    [report] stats section).

    {b Determinism rules.} A recorder built by {!create} without
    [~clock] never observes wall-clock time: spans carry
    [wall_seconds = None] and everything recorded is a pure function of
    the computation's own counters, so two runs of the same
    configuration produce identical telemetry. Passing [~clock]
    (e.g. [Unix.gettimeofday]) opts into wall-clock span timing — but
    the timing lives only in the recorder and its sinks; it must never
    be copied into pipeline artifacts or cache entries, which is what
    keeps cold ≡ warm byte-equality checkable.

    {b Sinks.} Observers passed to {!create} as [~sinks] receive every
    event as it happens. Sinks are pure observation: the recorded
    values and the instrumented computation's results are the same
    with zero, one or many sinks attached (a qcheck property in
    [test_stage.ml]).

    Recording is protected by a mutex, but counters should be bumped
    from the controlling domain (after [Parallel] joins), matching how
    the rest of the runtime keeps results jobs-invariant.

    {b Limits.} A recorder keeps every closed span until it is
    dropped, so its memory grows with the number of spans recorded: it
    is meant for bounded runs (one pipeline invocation, one bench
    experiment), not for a resident process. Its span stack is shared
    by all domains, so [with_span] calls running concurrently on two
    domains nest under each other and their counters land in
    whichever span opened last. For both reasons [zodiac serve] keeps
    fixed-size per-verb statistics in its session instead of a
    recorder. *)

type span = {
  span_name : string;
  depth : int;  (** 0 for top-level spans; nesting increments it *)
  counters : (string * int) list;  (** sorted by counter name *)
  notes : (string * string) list;  (** sorted by key *)
  wall_seconds : float option;
      (** [None] unless the recorder was created with [~clock] *)
}

type event =
  | Span_open of string
  | Span_close of span
  | Count of { span : string option; counter : string; value : int }

type sink = event -> unit

type t

val null : t
(** The disabled recorder: every operation is a no-op, [with_span]
    just runs its thunk. Use it as the default so instrumented code
    needs no option plumbing. *)

val create : ?clock:(unit -> float) -> ?sinks:sink list -> unit -> t
(** A fresh recorder. Without [~clock] it is deterministic (no
    [wall_seconds]); with it, spans measure wall time. *)

val enabled : t -> bool
(** [false] only for {!null}. *)

val deterministic : t -> bool
(** [true] when the recorder has no clock (or is {!null}). *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] runs [f] inside a span. The span closes (and
    reaches sinks) even if [f] raises. Nested calls record nested
    depths. *)

val count : t -> string -> int -> unit
(** Add to a counter of the innermost open span (or the recorder's
    root counters when no span is open). Zero increments are kept;
    they document that the quantity was measured. *)

val note : t -> string -> string -> unit
(** Attach/overwrite a key-value annotation on the innermost open
    span. Ignored outside any span. *)

val timed : t -> string -> (unit -> 'a) -> 'a * float
(** [timed t name f] = [with_span t name f] plus the span's wall time
    (0. on a clockless recorder) — the bench harness's timing helper. *)

val spans : t -> span list
(** Completed spans, in span-open order. *)

val totals : t -> (string * int) list
(** Counters aggregated across all spans and the root, sorted by
    name. *)

val find_counter : span -> string -> int option

val to_json : t -> Json.t
(** [{"deterministic": bool, "spans": [...], "totals": {...}}] — the
    [--trace] payload. Counters and notes are emitted in sorted order,
    so equal telemetry serializes to equal bytes. *)

val summary_table : t -> string
(** Per-stage {!Tablefmt} rendering: one row per span with its wall
    time (when clocked) and counters. *)
