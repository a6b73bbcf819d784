module Prng = Zodiac_util.Prng
module Flaky = Zodiac_cloud.Flaky
module Arm = Zodiac_cloud.Arm
module Provider = Zodiac_provider.Provider

type error = Budget_exhausted of Flaky.fault | Deadline_exceeded of float

let error_to_string = function
  | Budget_exhausted f ->
      Printf.sprintf "retry budget exhausted (last fault: %s in %s phase)"
        (Flaky.kind_to_string f.Flaky.kind)
        (Provider.phase_to_string f.Flaky.phase)
  | Deadline_exceeded t -> Printf.sprintf "deadline exceeded after %.1fs" t

type config = {
  max_retries : int;
  backoff : Backoff.config;
  breaker : Breaker.config;
  deadline : float option;
  attempt_cost : float;
  seed : int;
}

let default_config =
  {
    max_retries = 5;
    backoff = Backoff.default;
    breaker = Breaker.default;
    deadline = None;
    attempt_cost = 2.0;
    seed = 17;
  }

type t = {
  config : config;
  stats : Stats.t;
  backend : Zodiac_iac.Program.t -> Flaky.response;
  breaker : Breaker.t;
  prng : Prng.t;
  mutable clock : float;
}

let create ?(config = default_config) ~stats backend =
  {
    config;
    stats;
    backend;
    breaker = Breaker.create config.breaker;
    prng = Prng.create config.seed;
    clock = 0.0;
  }

let of_arm ~provider ?config ~stats () =
  let rules = provider.Provider.ground_truth () in
  create ?config ~stats (fun prog -> Flaky.Outcome (Arm.deploy ~provider ~rules prog))

let advance t dt =
  t.clock <- t.clock +. dt;
  Stats.add_sim_time t.stats dt

(* The retry loop, generalized over how a response is obtained so that
   [deploy] (live backend call) and [replay] (precomputed response) share
   one request-accounting path. *)
let run_request t backend =
  Stats.record_request t.stats;
  let start = t.clock in
  let deadline = Option.map (fun d -> start +. d) t.config.deadline in
  let past_deadline () =
    match deadline with Some d -> t.clock > d | None -> false
  in
  let rec attempt n =
    (* an open breaker paces the client instead of shedding the request *)
    (match Breaker.open_until t.breaker ~now:t.clock with
    | Some until -> advance t (until -. t.clock)
    | None -> ());
    advance t t.config.attempt_cost;
    Stats.record_attempt t.stats ~retry:(n > 0);
    match backend () with
    | Flaky.Outcome outcome ->
        Breaker.record_success t.breaker;
        Ok outcome
    | Flaky.Fault fault ->
        Stats.record_fault t.stats
          ~kind:(Flaky.kind_to_string fault.Flaky.kind)
          ~phase:(Provider.phase_to_string fault.Flaky.phase);
        let opens_before = Breaker.opens t.breaker in
        Breaker.record_failure t.breaker ~now:t.clock;
        if Breaker.opens t.breaker > opens_before then
          Stats.record_breaker_open t.stats;
        if n >= t.config.max_retries then begin
          Stats.record_giveup t.stats;
          Error (Budget_exhausted fault)
        end
        else begin
          let wait =
            Float.max fault.Flaky.retry_after
              (Backoff.delay t.config.backoff ~prng:t.prng ~attempt:n)
          in
          advance t wait;
          if past_deadline () then begin
            Stats.record_giveup t.stats;
            Error (Deadline_exceeded (t.clock -. start))
          end
          else attempt (n + 1)
        end
  in
  attempt 0

let deploy t prog = run_request t (fun () -> t.backend prog)

let raw t prog = t.backend prog

let replay t response = run_request t (fun () -> response)

let now t = t.clock
let breaker t = t.breaker
