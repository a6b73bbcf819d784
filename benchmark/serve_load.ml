(* Load for the serve workloads: the request stream, the daemon's life
   cycle, and the closed-loop clients. Each client waits for a reply
   before sending its next request, as an IDE or CI caller does. *)

module Json = Zodiac_util.Json
module Provider = Zodiac_provider.Provider
module Generator = Zodiac_corpus.Generator

(* Request [i] scans source [key i]: the HCL of generated corpus
   program [key i mod pool], salted with a [# zbench <key>] first line.
   On the cold stream [key i = i], so every request carries new content;
   on the hot stream [key i = i mod distinct], so the clients cycle over
   [distinct] sources. *)
type stream = {
  bodies : string array;
      (** each program's HCL as a JSON string literal, minus its opening
          quote (the salt line goes there) *)
  distinct : int option;  (** [None] on the cold stream *)
}

let violation_rate = 0.2

(* [count] generated projects whose mix does not depend on the seed: the
   provider's scenario weights split the slots exactly (largest
   remainder), and every fifth slot takes a project with an injected
   violation. The seed only picks which projects of a pool eight times
   larger fill the slots, so per-request work stays comparable across
   seeds. *)
let stratified ~provider ~seed ~count =
  let pool = Generator.generate ~provider ~violation_rate ~seed ~count:(8 * count) () in
  let weights = List.map (fun (w, (name, _)) -> (name, w)) provider.Provider.scenarios in
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 weights in
  let base = List.map (fun (n, w) -> (n, count * w / total, count * w mod total)) weights in
  let short = count - List.fold_left (fun acc (_, b, _) -> acc + b) 0 base in
  let extra =
    List.stable_sort (fun (_, _, r1) (_, _, r2) -> compare r2 r1) base
    |> List.filteri (fun i _ -> i < short)
    |> List.map (fun (n, _, _) -> n)
  in
  let slots =
    List.concat_map
      (fun (n, b, _) -> List.init (b + if List.mem n extra then 1 else 0) (fun _ -> n))
      base
  in
  let remaining = ref pool in
  let take pred =
    match List.find_opt pred !remaining with
    | Some p ->
        remaining := List.filter (fun q -> q != p) !remaining;
        Some p
    | None -> None
  in
  List.mapi
    (fun i scenario ->
      let injected = i mod 5 = 4 in
      let of_scenario (p : Generator.project) = String.equal p.Generator.scenario scenario in
      match take (fun p -> of_scenario p && (p.Generator.injected <> []) = injected) with
      | Some p -> p
      | None -> (
          match take of_scenario with Some p -> p | None -> Option.get (take (fun _ -> true))))
    slots

let stream ~seed ~pool ~distinct =
  let provider = Zodiac_providers.Providers.default in
  let bodies =
    stratified ~provider ~seed ~count:pool
    |> List.map (fun (p : Generator.project) ->
           let hcl =
             Zodiac_hcl.Compile.program_to_hcl
               ~type_name:provider.Provider.to_terraform p.Generator.program
           in
           let literal = Json.to_string (Json.String hcl) in
           String.sub literal 1 (String.length literal - 1))
    |> Array.of_list
  in
  { bodies; distinct }

let key s i = match s.distinct with None -> i | Some k -> i mod k

let line s i =
  let k = key s i in
  Printf.sprintf
    {|{"id":%d,"method":"scan_file","params":{"path":"zbench/p%d.tf","source":"# zbench %d\n%s}}|}
    i k k
    s.bodies.(k mod Array.length s.bodies)

(* The source text of request [i], as the daemon sees it. *)
let source s i =
  match Json.member "source" (Json.member "params" (Json.of_string (line s i))) with
  | Json.String src -> src
  | _ -> assert false

let ok_prefix i = Printf.sprintf {|{"id":%d,"ok":true,|} i

(* ---- the daemon ---- *)

type daemon = { pid : int; socket : string }

let ping = {|{"id":0,"method":"ping"}|}
let stats_request = {|{"id":0,"method":"stats"}|}
let shutdown_request = {|{"id":0,"method":"shutdown"}|}

let start ~zodiac ~max_clients name =
  let socket = Proc.scratch (name ^ ".sock") in
  let pid =
    Proc.spawn
      ~stderr_to:(Proc.scratch (name ^ ".log"))
      [|
        zodiac; "serve"; "--no-cache"; "--socket"; socket; "--max-clients";
        string_of_int max_clients;
      |]
  in
  { pid; socket }

let await_ping d =
  let c = Proc.connect d.socket in
  let reply = Fun.protect ~finally:(fun () -> Proc.close c) (fun () -> Proc.request c ping) in
  if not (String.starts_with ~prefix:{|{"id":0,"ok":true,"result":{"pong":true}|} reply)
  then failwith ("unexpected ping reply: " ^ reply)

(* Ask for [stats], then [shutdown], and reap the process. *)
let stop d =
  let c = Proc.connect d.socket in
  let stats =
    Fun.protect
      ~finally:(fun () -> Proc.close c)
      (fun () ->
        let stats = Proc.request c stats_request in
        ignore (Proc.request c shutdown_request);
        stats)
  in
  (Json.member "result" (Json.of_string stats), Proc.wait d.pid)

(* Run [f d] on a fresh daemon; a daemon still running when [f] raises
   is killed and reaped, so no process outlives the benchmark. *)
let with_daemon ~zodiac ~max_clients name f =
  let d = start ~zodiac ~max_clients name in
  let reaped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Proc.wait d.pid)
      end)
    (fun () ->
      let stats, status = f d in
      reaped := true;
      (stats, status))

(* Set-up time: daemon spawn to first [ping] answered (binary start,
   registry load, engine build), and how the daemon exited. *)
let setup_seconds ~zodiac name =
  let t = ref 0. in
  let t0 = Proc.now () in
  let _, status =
    with_daemon ~zodiac ~max_clients:1 name (fun d ->
        await_ping d;
        t := Proc.now () -. t0;
        stop d)
  in
  (!t, status)

(* ---- closed-loop clients ---- *)

type client_log = {
  latencies_ms : float list;
  completed : int;
  failures : int;  (** replies that were not [ok] for their own id *)
  sampled : (int * Digest.t) list;
      (** digests of the replies to every [sample_every]-th request *)
}

(* Client [c] of [clients] sends requests c, c + clients, c + 2 clients…
   below [requests]. *)
let client ~socket ~stream ~clients ~requests ~sample_every c =
  let conn = Proc.connect socket in
  Fun.protect
    ~finally:(fun () -> Proc.close conn)
    (fun () ->
      let rec loop i lat completed failures sampled =
        if i >= requests then
          { latencies_ms = lat; completed; failures; sampled }
        else
          let req = line stream i in
          let t0 = Proc.now () in
          let reply = Proc.request conn req in
          let dt = (Proc.now () -. t0) *. 1000. in
          let failures =
            if String.starts_with ~prefix:(ok_prefix i) reply then failures
            else failures + 1
          in
          let sampled =
            if i mod sample_every = 0 then (i, Digest.string reply) :: sampled
            else sampled
          in
          loop (i + clients) (dt :: lat) (completed + 1) failures sampled
      in
      loop c [] 0 0 [])

(* Request ids each client completed. *)
let completed_ids ~clients logs =
  List.concat (List.mapi (fun c l -> List.init l.completed (fun m -> c + (m * clients))) logs)

type window = {
  logs : client_log list;
  wall : float;
  daemon_cpu : float;  (** the daemon's CPU seconds over the window *)
  stats : Json.t;  (** the daemon's [stats] result after the window *)
  status : Unix.process_status;
}

(* One daemon, [clients] closed-loop clients sharing the first
   [requests] requests of [stream], then [stats] and shutdown. *)
let run_window ~zodiac ~stream ~clients ~requests ~sample_every name =
  let logs = ref [] and wall = ref 0. and cpu = ref 0. in
  let stats, status =
    with_daemon ~zodiac ~max_clients:clients name (fun d ->
        await_ping d;
        let cpu0 = Proc.process_cpu d.pid in
        let t0 = Proc.now () in
        logs :=
          List.init clients (fun c ->
              Domain.spawn (fun () ->
                  client ~socket:d.socket ~stream ~clients ~requests ~sample_every c))
          |> List.map Domain.join;
        wall := Proc.now () -. t0;
        cpu := Proc.process_cpu d.pid -. cpu0;
        stop d)
  in
  { logs = !logs; wall = !wall; daemon_cpu = !cpu; stats; status }

(* The daemon's session, rebuilt in-process: [zodiac serve --no-cache]
   with every other flag at its default. *)
let fresh_session () =
  match
    Zodiac_serve.Session.create
      {
        Zodiac_serve.Session.default_config with
        Zodiac_serve.Session.jobs = Zodiac_util.Parallel.recommended_jobs ();
      }
  with
  | Ok s -> s
  | Error e -> failwith e

(* The reply bytes [zodiac serve] writes for a request line (its
   request-size and deadline flags at their defaults). *)
let handle session req = Json.to_string (Zodiac_serve.Server.handle_line session req)

(* Replay the sampled requests in id order on a fresh session; returns
   the ids whose reply bytes differ from the daemon's. *)
let replay_mismatches ~stream logs =
  let session = fresh_session () in
  List.concat_map (fun l -> l.sampled) logs
  |> List.sort compare
  |> List.filter_map (fun (i, digest) ->
         if Digest.equal (Digest.string (handle session (line stream i))) digest then None
         else Some i)
