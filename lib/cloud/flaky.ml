module Prng = Zodiac_util.Prng
module Program = Zodiac_iac.Program
module Provider = Zodiac_provider.Provider

type kind = Throttled | Timeout | Polling_flake | Quota_race

let kind_to_string = function
  | Throttled -> "throttled"
  | Timeout -> "timeout"
  | Polling_flake -> "polling-flake"
  | Quota_race -> "quota-race"

let kind_phase = function
  | Throttled -> Provider.Create
  | Timeout -> Provider.Pre_sync
  | Polling_flake -> Provider.Polling
  | Quota_race -> Provider.Create

(* Weighted mix loosely matching Azure war stories: throttling
   dominates, quota races are rare. *)
let kind_weights = [ (50, Throttled); (20, Timeout); (20, Polling_flake); (10, Quota_race) ]

let retry_after = function
  | Throttled -> 4.0
  | Timeout -> 1.0
  | Polling_flake -> 2.0
  | Quota_race -> 8.0

type fault = { kind : kind; phase : Provider.phase; retry_after : float }
type response = Outcome of Arm.outcome | Fault of fault

type config = { seed : int; fault_rate : float; max_consecutive : int }

let default_config = { seed = 7; fault_rate = 0.15; max_consecutive = 3 }

type t = {
  provider : Zodiac_provider.Provider.t;
  config : config;
  rules : Provider.rule list;
  quota : Quota.t;
  prng : Prng.t;
  mutable last : Program.t option;  (** program of the latest faulted call *)
  mutable consecutive : int;
  mutable injected : int;
  tally : (kind, int) Hashtbl.t;
}

let create ~provider ?rules ?(quota = Quota.unlimited) config =
  let rules =
    match rules with
    | Some r -> r
    | None -> provider.Zodiac_provider.Provider.ground_truth ()
  in
  {
    provider;
    config = { config with max_consecutive = max 1 config.max_consecutive };
    rules;
    quota;
    prng = Prng.create config.seed;
    last = None;
    consecutive = 0;
    injected = 0;
    tally = Hashtbl.create 4;
  }

let same_program t prog =
  match t.last with Some p -> Program.equal p prog | None -> false

let deploy t prog =
  let want_fault = Prng.chance t.prng t.config.fault_rate in
  let burst_exhausted =
    same_program t prog && t.consecutive >= t.config.max_consecutive
  in
  if want_fault && not burst_exhausted then begin
    let kind = Prng.weighted t.prng kind_weights in
    t.consecutive <- (if same_program t prog then t.consecutive + 1 else 1);
    t.last <- Some prog;
    t.injected <- t.injected + 1;
    Hashtbl.replace t.tally kind
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.tally kind));
    Fault { kind; phase = kind_phase kind; retry_after = retry_after kind }
  end
  else begin
    t.consecutive <- 0;
    t.last <- None;
    Outcome (Arm.deploy ~provider:t.provider ~rules:t.rules ~quota:t.quota prog)
  end

let injected t = t.injected

let injected_by_kind t =
  List.map
    (fun kind -> (kind, Option.value ~default:0 (Hashtbl.find_opt t.tally kind)))
    [ Throttled; Timeout; Polling_flake; Quota_race ]
