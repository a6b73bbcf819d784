module Json = Zodiac_util.Json
module Telemetry = Zodiac_util.Telemetry
module Cache = Zodiac_util.Cache
module Engine = Zodiac_engine.Engine
module Provider = Zodiac_provider.Provider
module Providers = Zodiac_providers.Providers

type config = {
  provider : Provider.t;  (** session default; requests may override *)
  checks_file : string option;
  cache_dir : string option;
  jobs : int;
  timestamps : bool;
  engine : Engine.config;
}

let default_config =
  {
    provider = Providers.default;
    checks_file = None;
    cache_dir = None;
    jobs = 1;
    timestamps = false;
    engine = Engine.default_config;
  }

(* One session is shared by every connection the server accepts, so
   the mutable surface splits into three independently-locked parts:
   [state_lock] guards the request/connection counters, [engine_lock]
   serializes the deployment engine (its memo table is not
   thread-safe), and the scan cache locks internally. Handlers hold at
   most one lock at a time — no ordering to get wrong. *)
type t = {
  config : config;
  provider : Provider.t;
  checks : Scan.check_entry list;
  gt_checks : (string * Scan.check_entry list) list;
      (** ground-truth entries per linked provider — the per-request
          check sets when no validated file was loaded *)
  engine : Engine.t;
  engine_lock : Mutex.t;
  cache : Cache.t option;
  scan_cache : Scan_cache.t;
  telemetry : Telemetry.t;
  state_lock : Mutex.t;
  requests : (string, int) Hashtbl.t;  (** method -> count *)
  mutable findings_total : int;
  mutable files_scanned : int;
  mutable errors_total : int;
  mutable connections_active : int;
  mutable connections_total : int;
  mutable queue_depth : int;
  stop : bool Atomic.t;
}

let create ?(telemetry = Telemetry.null) (config : config) =
  match Scan.load_checks config.provider config.checks_file with
  | Error e -> Error e
  | Ok checks ->
      let cache =
        Option.map (fun dir -> Cache.create ~dir ()) config.cache_dir
      in
      let gt_checks =
        match config.checks_file with
        | Some _ -> []
        | None ->
            List.map
              (fun p -> (p.Provider.name, Scan.ground_truth_entries p))
              Providers.all
      in
      Ok
        {
          config;
          provider = config.provider;
          checks;
          gt_checks;
          engine = Engine.create ~provider:config.provider ~config:config.engine ();
          engine_lock = Mutex.create ();
          cache;
          scan_cache = Scan_cache.create ?disk:cache ~checks ();
          telemetry;
          state_lock = Mutex.create ();
          requests = Hashtbl.create 8;
          findings_total = 0;
          files_scanned = 0;
          errors_total = 0;
          connections_active = 0;
          connections_total = 0;
          queue_depth = 0;
          stop = Atomic.make false;
        }

let checks t = t.checks

let stopping t = Atomic.get t.stop

let with_lock lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let with_state t f = with_lock t.state_lock f

let connection_opened t =
  with_state t (fun () ->
      t.connections_active <- t.connections_active + 1;
      t.connections_total <- t.connections_total + 1)

let connection_closed t =
  with_state t (fun () -> t.connections_active <- t.connections_active - 1)

let set_queue_depth t depth = with_state t (fun () -> t.queue_depth <- depth)

(* RFC-3339 UTC from the wall clock; only reachable when the operator
   opted into [timestamps]. *)
let utc_now () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let timestamp t = if t.config.timestamps then Some (utc_now ()) else None

let sarif_of_findings t findings =
  match timestamp t with
  | None -> Sarif.document findings
  | Some ts -> Sarif.document ~timestamp:ts findings

let scan_error e = { Protocol.code = "scan_error"; message = e }

let bump_errors ?(n = 1) t =
  with_state t (fun () -> t.errors_total <- t.errors_total + n)

let record_scanned t ~files ~findings =
  with_state t (fun () ->
      t.files_scanned <- t.files_scanned + files;
      t.findings_total <- t.findings_total + findings)

(* Per-request provider resolution: the resource-type prefixes in the
   source pick the backend; the session provider is the fallback for
   sources that name no known prefix. *)
let resolve t src =
  match Providers.detect_source src with Some p -> p | None -> t.provider

(* With a validated check set loaded, every request uses it; in
   ground-truth mode each request gets its resolved provider's rules. *)
let checks_for t provider =
  match t.config.checks_file with
  | Some _ -> t.checks
  | None -> (
      match List.assoc_opt provider.Provider.name t.gt_checks with
      | Some entries -> entries
      | None -> t.checks)

(* Every scan funnels through the content-fingerprint cache: same
   bytes + same registry + same resolved provider = cached findings,
   path reattached. The underlying scanner still sees the deadline
   checkpoint. *)
let cached_scan ?checkpoint t ~mode ~file src =
  let provider = resolve t src in
  let checks = checks_for t provider in
  let tag = Provider.fingerprint provider in
  Scan_cache.scan t.scan_cache ~tag ~mode ~file src (fun () ->
      match mode with
      | "plan" -> Scan.scan_plan_source ?checkpoint ~provider ~checks ~file src
      | _ -> Scan.scan_source ?checkpoint ~provider ~checks ~file src)

let scan_path ?checkpoint t ~mode ~path ~source =
  match source with
  | Some src -> cached_scan ?checkpoint t ~mode ~file:path src
  | None -> (
      match Scan.read_file path with
      | Error e -> Error e
      | Ok src -> cached_scan ?checkpoint t ~mode ~file:path src)

(* Single-content scans resolve their source bytes up front: the same
   bytes feed the scan and the [content_fingerprint] validator the
   response envelope carries (the {!Scan_cache} key — an ETag clients
   can use to skip resending unchanged content). *)
let do_scan_one ?checkpoint t ~mode ~path ~source =
  let resolved =
    match source with Some src -> Ok src | None -> Scan.read_file path
  in
  match resolved with
  | Error e ->
      bump_errors t;
      Error (scan_error e)
  | Ok src -> (
      match cached_scan ?checkpoint t ~mode ~file:path src with
      | Error e ->
          bump_errors t;
          Error (scan_error e)
      | Ok findings ->
          record_scanned t ~files:1 ~findings:(List.length findings);
          Telemetry.count t.telemetry "serve.findings" (List.length findings);
          Ok
            ( sarif_of_findings t findings,
              [
                ( "content_fingerprint",
                  Json.String
                    (Scan_cache.fingerprint t.scan_cache
                       ~tag:(Provider.fingerprint (resolve t src))
                       ~mode src) );
              ] ))

let do_scan_directory ?checkpoint t ~dir =
  let scan file =
    match Scan.read_file file with
    | Error e -> Error e
    | Ok src -> cached_scan ?checkpoint t ~mode:"hcl" ~file src
  in
  match
    Scan.scan_directory ~jobs:t.config.jobs ?checkpoint ~scan
      ~provider:t.provider ~checks:t.checks dir
  with
  | Error e ->
      bump_errors t;
      Error (scan_error e)
  | Ok (findings, errors) ->
      let files = Scan.hcl_files dir in
      record_scanned t ~files:(List.length files)
        ~findings:(List.length findings);
      bump_errors ~n:(List.length errors) t;
      Telemetry.count t.telemetry "serve.findings" (List.length findings);
      Telemetry.count t.telemetry "serve.files" (List.length files);
      Ok
        (Json.Obj
           [
             ("sarif", sarif_of_findings t findings);
             ("files_scanned", Json.Int (List.length files));
             ( "errors",
               Json.List
                 (List.map
                    (fun (file, e) ->
                      Json.Obj
                        [
                          ("file", Json.String file);
                          ("message", Json.String e);
                        ])
                    errors) );
           ])

(* N files, one SARIF run per file, answered as one response in
   request order (deterministic regardless of which pool domain
   finished first). Per-file failures don't fail the batch. *)
let do_scan_batch ?checkpoint t ~files =
  let results =
    Zodiac_util.Parallel.map ~jobs:t.config.jobs
      (fun (path, source) ->
        (path, scan_path ?checkpoint t ~mode:"hcl" ~path ~source))
      files
  in
  let scanned, errors, findings =
    List.fold_left
      (fun (scanned, errors, findings) (_, result) ->
        match result with
        | Ok fs -> (scanned + 1, errors, findings + List.length fs)
        | Error _ -> (scanned, errors + 1, findings))
      (0, 0, 0) results
  in
  record_scanned t ~files:scanned ~findings;
  bump_errors ~n:errors t;
  Telemetry.count t.telemetry "serve.findings" findings;
  Telemetry.count t.telemetry "serve.files" scanned;
  Ok
    (Json.Obj
       [
         ( "results",
           Json.List
             (List.map
                (fun (path, result) ->
                  Json.Obj
                    (("path", Json.String path)
                    ::
                    (match result with
                    | Ok fs -> [ ("sarif", sarif_of_findings t fs) ]
                    | Error e -> [ ("error", Json.String e) ])))
                results) );
         ("files_scanned", Json.Int scanned);
         ("errors", Json.Int errors);
       ])

let do_list_checks t =
  let kind =
    match t.config.checks_file with None -> "ground-truth" | Some _ -> "validated"
  in
  Ok
    (Json.Obj
       [
         ("provider", Json.String t.provider.Provider.name);
         ("kind", Json.String kind);
         ("count", Json.Int (List.length t.checks));
         ( "checks",
           Json.List
             (List.map
                (fun (e : Scan.check_entry) ->
                  Json.Obj
                    [
                      ("id", Json.String e.Scan.id);
                      ("message", Json.String e.Scan.message);
                      ( "spec",
                        Json.String
                          (Zodiac_spec.Spec_printer.to_string e.Scan.check) );
                    ])
                t.checks) );
       ])

let id_json rid = Json.String (Zodiac_iac.Resource.id_to_string rid)

let failure_json (f : Zodiac_cloud.Arm.failure) =
  Json.Obj
    [
      ("resource", id_json f.Zodiac_cloud.Arm.resource);
      ( "phase",
        Json.String (Provider.phase_to_string f.Zodiac_cloud.Arm.phase)
      );
      ("rule_id", Json.String f.Zodiac_cloud.Arm.rule_id);
      ("message", Json.String f.Zodiac_cloud.Arm.message);
    ]

let do_validate ?checkpoint t ~path ~source =
  let resolved =
    match source with Some src -> Ok src | None -> Scan.read_file path
  in
  let compiled =
    match resolved with
    | Error e -> Error e
    | Ok src -> (
        let provider = resolve t src in
        match
          Zodiac_hcl.Compile.compile_string
            ~type_map:provider.Provider.of_terraform src
        with
        | Ok (prog, _) -> Ok (provider, prog)
        | Error e -> Error (Printf.sprintf "%s: %s" path e))
  in
  match compiled with
  | Error e ->
      bump_errors t;
      Error { Protocol.code = "validate_error"; message = e }
  | Ok (provider, prog) -> (
      (match checkpoint with None -> () | Some probe -> probe ());
      (* The memoizing engine is bound to the session provider; a
         request resolved to another backend deploys straight through
         its simulator instead (no memo, same outcome shape). *)
      let deploy () =
        if String.equal provider.Provider.name t.provider.Provider.name then
          with_lock t.engine_lock (fun () -> Engine.deploy t.engine prog)
        else Ok (Zodiac_cloud.Arm.deploy ~provider prog)
      in
      match deploy () with
      | Error e ->
          Ok
            (Json.Obj
               [
                 ("deployable", Json.Bool false);
                 ( "abandoned",
                   Json.String (Zodiac_engine.Client.error_to_string e) );
               ])
      | Ok outcome ->
          let open Zodiac_cloud.Arm in
          Telemetry.count t.telemetry "serve.deployments" 1;
          Ok
            (Json.Obj
               [
                 ("deployable", Json.Bool (success outcome));
                 ( "deployed",
                   Json.List (List.map id_json outcome.deployed) );
                 ( "failure",
                   match outcome.failure with
                   | None -> Json.Null
                   | Some f -> failure_json f );
                 ("halted", Json.List (List.map id_json outcome.halted));
                 ( "post_sync_issues",
                   Json.List (List.map failure_json outcome.post_sync_issues) );
               ]))

let do_stats t =
  let requests, files_scanned, findings_total, errors_total, conn_active,
      conn_total, queue_depth =
    with_state t (fun () ->
        ( List.sort compare
            (Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) t.requests []),
          t.files_scanned,
          t.findings_total,
          t.errors_total,
          t.connections_active,
          t.connections_total,
          t.queue_depth ))
  in
  let cache =
    match t.cache with
    | None -> Json.Null
    | Some cache ->
        let s = Cache.stats cache in
        Json.Obj
          [
            ("dir", Json.String (Cache.dir cache));
            ("hits", Json.Int s.Cache.hits);
            ("misses", Json.Int s.Cache.misses);
            ("writes", Json.Int s.Cache.writes);
            ("write_failures", Json.Int s.Cache.write_failures);
          ]
  in
  let scan_cache =
    Json.Obj
      [
        ("hits", Json.Int (Scan_cache.hits t.scan_cache));
        ("misses", Json.Int (Scan_cache.misses t.scan_cache));
        ("entries", Json.Int (Scan_cache.entries t.scan_cache));
      ]
  in
  let engine =
    with_lock t.engine_lock (fun () ->
        let s = Engine.stats t.engine in
        Json.Obj
          [
            ("requests", Json.Int s.Zodiac_engine.Stats.requests);
            ("attempts", Json.Int s.Zodiac_engine.Stats.attempts);
            ("retries", Json.Int s.Zodiac_engine.Stats.retries);
            ("memo_hits", Json.Int s.Zodiac_engine.Stats.cache_hits);
            ("memo_entries", Json.Int (Engine.memo_entries t.engine));
          ])
  in
  (* Peak RSS is a render-time probe: a gauge of this process, never
     part of telemetry counters or cached artifacts. Null off-Linux. *)
  let peak_rss =
    match Zodiac_util.Rss.peak_rss_kb () with
    | None -> Json.Null
    | Some kb -> Json.Int kb
  in
  Ok
    (Json.Obj
       [
         ("requests", Json.Obj requests);
         ("files_scanned", Json.Int files_scanned);
         ("findings", Json.Int findings_total);
         ("errors", Json.Int errors_total);
         ("connections_active", Json.Int conn_active);
         ("connections_total", Json.Int conn_total);
         ("queue_depth", Json.Int queue_depth);
         ("provider", Json.String t.provider.Provider.name);
         ("checks_loaded", Json.Int (List.length t.checks));
         ("jobs", Json.Int t.config.jobs);
         ("peak_rss_kb", peak_rss);
         ("scan_cache", scan_cache);
         ("engine", engine);
         ("cache", cache);
       ])

(* Dispatch yields the result payload plus envelope extras — response
   members that ride beside ["result"] (never inside it, so the SARIF
   payload stays byte-identical to the one-shot CLI's). *)
let dispatch ?checkpoint t verb =
  let plain = Result.map (fun json -> (json, [])) in
  match verb with
  | Protocol.Scan_file { path; source } ->
      do_scan_one ?checkpoint t ~mode:"hcl" ~path ~source
  | Protocol.Scan_plan { path; source } ->
      do_scan_one ?checkpoint t ~mode:"plan" ~path ~source
  | Protocol.Scan_directory { dir } ->
      plain (do_scan_directory ?checkpoint t ~dir)
  | Protocol.Scan_batch { files } -> plain (do_scan_batch ?checkpoint t ~files)
  | Protocol.List_checks -> plain (do_list_checks t)
  | Protocol.Validate { path; source } ->
      plain (do_validate ?checkpoint t ~path ~source)
  | Protocol.Ping -> Ok (Json.Obj [ ("pong", Json.Bool true) ], [])
  | Protocol.Stats -> plain (do_stats t)
  | Protocol.Shutdown ->
      Atomic.set t.stop true;
      Ok (Json.Obj [ ("stopping", Json.Bool true) ], [])

exception Deadline_exceeded

let deadline_error ms =
  {
    Protocol.code = "deadline_exceeded";
    message = Printf.sprintf "request exceeded the %d ms deadline" ms;
  }

let handle_extra ?deadline_ms t verb =
  let name = Protocol.verb_name verb in
  with_state t (fun () ->
      Hashtbl.replace t.requests name
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.requests name)));
  (* The deadline is enforced *while* the request runs: [checkpoint]
     raises at the natural work boundaries (between checks, between
     files, before a deployment), so an over-deadline scan abandons
     its remaining work and its partial findings are dropped before
     any counter or cache records them. The post-dispatch check is
     only a backstop for verbs with no checkpoints. *)
  let start = Unix.gettimeofday () in
  let checkpoint =
    match deadline_ms with
    | None -> None
    | Some ms ->
        let limit = float_of_int ms /. 1000. in
        Some
          (fun () ->
            if Unix.gettimeofday () -. start > limit then
              raise Deadline_exceeded)
  in
  let overdue () =
    match deadline_ms with
    | None -> false
    | Some ms -> (Unix.gettimeofday () -. start) *. 1000. > float_of_int ms
  in
  Telemetry.with_span t.telemetry ("serve." ^ name) (fun () ->
      match dispatch ?checkpoint t verb with
      | Ok _ when overdue () ->
          (* Checkpoint-free verb finished past the deadline: the work
             already ran to completion (counters/cache recorded it),
             but the client still gets the structured error, counted
             like the in-flight deadline path. *)
          bump_errors t;
          Error (deadline_error (Option.get deadline_ms))
      | result -> result
      | exception Deadline_exceeded ->
          bump_errors t;
          Error (deadline_error (Option.get deadline_ms))
      | exception exn ->
          bump_errors t;
          Error
            {
              Protocol.code = "internal_error";
              message = Printexc.to_string exn;
            })

let handle ?deadline_ms t verb =
  Result.map fst (handle_extra ?deadline_ms t verb)
