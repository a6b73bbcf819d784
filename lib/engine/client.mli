(** The resilient deployment client.

    Recovers the genuine {!Zodiac_cloud.Arm.outcome} from a backend
    that may answer with transient faults ({!Zodiac_cloud.Flaky}).
    Each request runs a retry loop under a per-request budget:

    - transient faults are retried after an exponential-backoff delay
      with jitter ({!Backoff}), never sooner than the fault's
      server-suggested [retry_after];
    - a circuit breaker ({!Breaker}) counts consecutive faults across
      requests; while it is open the client {e paces} (advances its
      simulated clock to the reopen time) rather than shedding the
      request, so verdicts are never dropped on the floor;
    - deadline accounting runs on a simulated clock: every attempt
      costs [attempt_cost] simulated seconds and every wait its delay;
      an optional per-request [deadline] aborts the retry loop.

    Soundness: with a flaky backend whose burst cap is
    [max_consecutive] and a client budget [max_retries >=
    max_consecutive], every request returns [Ok] with the genuine
    outcome — faults only cost time, never truth. *)

type error =
  | Budget_exhausted of Zodiac_cloud.Flaky.fault
      (** the last fault seen when the retry budget ran out *)
  | Deadline_exceeded of float  (** simulated seconds consumed *)

val error_to_string : error -> string

type config = {
  max_retries : int;  (** retries per request, on top of the first attempt *)
  backoff : Backoff.config;
  breaker : Breaker.config;
  deadline : float option;  (** per-request budget, simulated seconds *)
  attempt_cost : float;  (** simulated seconds per backend call *)
  seed : int;  (** jitter PRNG seed *)
}

val default_config : config
(** 5 retries, default backoff/breaker, no deadline, 2s per attempt. *)

type t

val create :
  ?config:config ->
  stats:Stats.t ->
  (Zodiac_iac.Program.t -> Zodiac_cloud.Flaky.response) ->
  t

val of_arm :
  provider:Zodiac_provider.Provider.t ->
  ?config:config ->
  stats:Stats.t ->
  unit ->
  t
(** A client over the fault-free simulator: every call passes through
    to {!Zodiac_cloud.Arm.deploy} with [provider]'s ground-truth rules,
    resolved once here, and no quota. *)

val deploy : t -> Zodiac_iac.Program.t -> (Zodiac_cloud.Arm.outcome, error) result

val raw : t -> Zodiac_iac.Program.t -> Zodiac_cloud.Flaky.response
(** Call the backend with no bookkeeping: no stats, no clock, no
    breaker. Safe from any domain when the backend is pure (the
    fault-free simulator); the engine's batch path uses it to
    precompute responses in parallel. *)

val replay :
  t -> Zodiac_cloud.Flaky.response -> (Zodiac_cloud.Arm.outcome, error) result
(** Account for a request whose response was precomputed with {!raw}:
    performs exactly the bookkeeping {!deploy} would (request/attempt
    counters, breaker, simulated clock). For an [Outcome] response this
    is bit-identical to the [deploy] call it replaces. A [Fault]
    response would be re-served on every retry, so only replay
    responses from fault-free backends. *)

val now : t -> float
(** The simulated clock, total seconds across all requests so far. *)

val breaker : t -> Breaker.t
