module Arm = Zodiac_cloud.Arm
module Flaky = Zodiac_cloud.Flaky
module Provider = Zodiac_provider.Provider
module Quota = Zodiac_cloud.Quota
module Program = Zodiac_iac.Program
module Parallel = Zodiac_util.Parallel

type backend = Pure | Faulty of Flaky.config

type config = {
  client : Client.config;
  memo : bool;
  memo_capacity : int;
  backend : backend;
}

let default_config =
  {
    client = Client.default_config;
    memo = true;
    memo_capacity = 8192;
    backend = Pure;
  }

let faulty_config ?fault_rate ?seed () =
  let base = Flaky.default_config in
  let fault_rate = Option.value ~default:base.Flaky.fault_rate fault_rate in
  let seed = Option.value ~default:base.Flaky.seed seed in
  { default_config with backend = Faulty { base with Flaky.fault_rate; seed } }

type t = {
  config : config;
  stats : Stats.t;
  client : Client.t;
  cache : Arm.outcome Memo.t option;
}

let create ~provider ?rules ?quota ?(config = default_config) () =
  let stats = Stats.create () in
  let client =
    match config.backend with
    | Pure -> Client.of_arm ~provider ?rules ?quota ~config:config.client ~stats ()
    | Faulty fault_config ->
        let flaky = Flaky.create ~provider ?rules ?quota fault_config in
        Client.create ~config:config.client ~stats (Flaky.deploy flaky)
  in
  let cache =
    if config.memo then Some (Memo.create ~capacity:config.memo_capacity ())
    else None
  in
  { config; stats; client; cache }

let config t = t.config

let deploy t prog =
  match t.cache with
  | None -> Client.deploy t.client prog
  | Some cache -> (
      let key = Fingerprint.canonical prog in
      match Memo.find cache key with
      | Some outcome ->
          (* a request answered without touching the backend *)
          Stats.record_request t.stats;
          Ok outcome
      | None -> (
          match Client.deploy t.client prog with
          | Ok outcome ->
              Memo.add cache key outcome;
              Ok outcome
          | Error _ as e -> e))

(* Batched deployments. The contract is that
   [deploy_batch t progs = List.map (deploy t) progs] — bit-identical
   results and stats — for every [jobs] value; parallelism is only
   exploited where that equality is provable:

   - [Pure] backend: the simulator is a pure function, so raw responses
     for memo-missing fingerprints are computed across domains, then
     committed sequentially in batch order through {!Client.replay},
     which reproduces the exact request accounting (clock, breaker,
     memo hit/miss/eviction sequence) of the sequential path.
   - [Faulty] backend: fault draws come from one seeded stream, so the
     response depends on request order; the batch stays sequential and
     order-faithful. *)
let deploy_batch ?jobs t progs =
  match t.config.backend with
  | Faulty _ -> List.map (deploy t) progs
  | Pure -> (
      match t.cache with
      | None ->
          let responses = Parallel.map ?jobs (Client.raw t.client) progs in
          List.map (Client.replay t.client) responses
      | Some cache ->
          let keys = Parallel.map ?jobs Fingerprint.canonical progs in
          (* First occurrence of each fingerprint not already memoized
             gets a raw backend call; duplicates within the batch ride
             the first occurrence, exactly as they would sequentially. *)
          let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
          let pending = ref [] in
          List.iter2
            (fun prog key ->
              if (not (Memo.mem cache key)) && not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                pending := (key, prog) :: !pending
              end)
            progs keys;
          let pending = List.rev !pending in
          let responses =
            Parallel.map ?jobs (fun (_, prog) -> Client.raw t.client prog) pending
          in
          let resp : (string, Flaky.response) Hashtbl.t = Hashtbl.create 64 in
          List.iter2
            (fun (key, _) r -> Hashtbl.replace resp key r)
            pending responses;
          List.map2
            (fun prog key ->
              match Memo.find cache key with
              | Some outcome ->
                  Stats.record_request t.stats;
                  Ok outcome
              | None -> (
                  let response =
                    match Hashtbl.find_opt resp key with
                    | Some r -> r
                    | None ->
                        (* the pre-scan saw this key cached but it has
                           since been evicted: fall back to a live call,
                           as the sequential path would *)
                        Client.raw t.client prog
                  in
                  match Client.replay t.client response with
                  | Ok outcome ->
                      Memo.add cache key outcome;
                      Ok outcome
                  | Error _ as e -> e))
            progs keys)

let success t prog =
  match deploy t prog with Ok outcome -> Arm.success outcome | Error _ -> false

let oracle t = success t

let oracle_batch ?jobs t progs =
  List.map
    (function Ok outcome -> Arm.success outcome | Error _ -> false)
    (deploy_batch ?jobs t progs)

let stats t =
  match t.cache with
  | None -> Stats.basic_snapshot t.stats
  | Some cache ->
      Stats.snapshot_with ~cache_hits:(Memo.hits cache)
        ~cache_misses:(Memo.misses cache)
        ~cache_evictions:(Memo.evictions cache) t.stats

let memo_entries t =
  match t.cache with None -> 0 | Some cache -> Memo.length cache
