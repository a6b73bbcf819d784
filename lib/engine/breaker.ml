type config = { failure_threshold : int; cooldown : float }

let default = { failure_threshold = 5; cooldown = 60.0 }

type state = Closed | Open | Half_open

type t = {
  config : config;
  mutable failures : int;  (** consecutive transient failures *)
  mutable tripped_until : float option;
  mutable opens : int;
}

let create config =
  let config = { config with failure_threshold = max 1 config.failure_threshold } in
  { config; failures = 0; tripped_until = None; opens = 0 }

let state t ~now =
  match t.tripped_until with
  | None -> Closed
  | Some until -> if now < until then Open else Half_open

let open_until t ~now =
  match t.tripped_until with
  | Some until when now < until -> Some until
  | _ -> None

let trip t ~now =
  t.tripped_until <- Some (now +. t.config.cooldown);
  t.opens <- t.opens + 1;
  t.failures <- 0

let record_success t =
  t.failures <- 0;
  t.tripped_until <- None

let record_failure t ~now =
  match state t ~now with
  | Half_open -> trip t ~now
  | Open | Closed ->
      t.failures <- t.failures + 1;
      if t.failures >= t.config.failure_threshold then trip t ~now

let opens t = t.opens
