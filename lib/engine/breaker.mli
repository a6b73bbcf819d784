(** Circuit breaker over the deployment backend.

    Classic three-state machine driven by an external (simulated)
    clock:

    - {b Closed}: requests flow; consecutive transient failures are
      counted, and reaching [failure_threshold] trips the breaker;
    - {b Open}: the backend is presumed throttling; the breaker stays
      open for [cooldown] simulated seconds from the trip time;
    - {b Half_open}: the cooldown elapsed; one probe is allowed — a
      success closes the breaker, a failure re-trips it immediately.

    The resilient client uses an open breaker for {e pacing}, not load
    shedding: it advances its simulated clock to the reopen time
    rather than failing the deployment, so soundness of verdicts is
    unaffected. *)

type config = {
  failure_threshold : int;  (** consecutive failures that trip ([>= 1]) *)
  cooldown : float;  (** open duration, simulated seconds *)
}

val default : config
(** Threshold 5, cooldown 60s. *)

type state = Closed | Open | Half_open

type t

val create : config -> t

val state : t -> now:float -> state

val open_until : t -> now:float -> float option
(** [Some t] while the breaker is open and will admit a probe at [t]. *)

val record_success : t -> unit
(** Resets the failure streak and closes the breaker. *)

val record_failure : t -> now:float -> unit
(** Count a transient failure; trips the breaker from [Closed] at the
    threshold and re-trips immediately from [Half_open]. *)

val opens : t -> int
(** How many times the breaker has tripped. *)
