(* Check-as-a-service tests: the JSON layer's parse/print round-trip
   (qcheck) and malformed-input behavior, the request protocol, the
   resident session's verbs, SARIF determinism, and an in-process
   daemon round-trip asserting byte-equality with the one-shot scan
   path. *)

module Json = Zodiac_util.Json
module Sarif = Zodiac_serve.Sarif
module Scan = Zodiac_serve.Scan
module Protocol = Zodiac_serve.Protocol
module Session = Zodiac_serve.Session
module Server = Zodiac_serve.Server
module Scan_cache = Zodiac_serve.Scan_cache
module Registry = Zodiac.Registry

(* ------------- JSON round-trip (qcheck) ------------------------------ *)

let json_gen : Json.t QCheck.Gen.t =
  let open QCheck.Gen in
  let finite f =
    if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then 0.
    else f
  in
  sized
  @@ fix (fun self n ->
         let scalar =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map (fun f -> Json.Float (finite f)) float;
               map (fun s -> Json.String s) (string_size (int_bound 16));
             ]
         in
         if n <= 0 then scalar
         else
           frequency
             [
               (3, scalar);
               ( 1,
                 map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2)))
               );
               ( 1,
                 map
                   (fun ps -> Json.Obj ps)
                   (list_size (int_bound 4)
                      (pair (string_size (int_bound 8)) (self (n / 2)))) );
             ])

let json_arbitrary =
  QCheck.make ~print:(fun j -> Json.to_string ~pretty:true j) json_gen

let prop_roundtrip =
  QCheck.Test.make ~name:"parse (print j) = j" ~count:500 json_arbitrary
    (fun j -> Json.of_string_result (Json.to_string j) = Ok j)

let prop_roundtrip_pretty =
  QCheck.Test.make ~name:"parse (pretty-print j) = j" ~count:500 json_arbitrary
    (fun j -> Json.of_string_result (Json.to_string ~pretty:true j) = Ok j)

(* ------------- malformed-input fuzz ---------------------------------- *)

let malformed_inputs =
  [
    "";
    "   ";
    "{";
    "[1,2";
    "\"abc";
    "{\"a\":}";
    "{\"a\" 1}";
    "[1 2]";
    "nul";
    "tru";
    "falsy";
    "-";
    "--1";
    "01x";
    "{}garbage";
    "\"\\q\"";
    "\"\\u12\"";
    "\"\\u12G4\"";
    "\"\\u1_34\"";
    "\"\\";
    "{\"a\": [1, {\"b\": }]}";
    String.make 4 '[';
  ]

let test_malformed_returns_error () =
  List.iter
    (fun input ->
      match Json.of_string_result input with
      | Error _ -> ()
      | Ok v ->
          Alcotest.failf "input %S parsed to %s" input (Json.to_string v))
    malformed_inputs

let test_oversized_payload () =
  let big = Json.to_string (Json.String (String.make 100 'x')) in
  (match Json.of_string_result ~max_bytes:10 big with
  | Error msg ->
      Alcotest.(check bool) "mentions limit" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "oversized payload accepted");
  match Json.of_string_result ~max_bytes:(String.length big) big with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "at-limit payload rejected: %s" e

let test_deep_nesting_no_crash () =
  (* a malicious depth bomb must come back Error, never Stack_overflow *)
  let depth = 2_000_000 in
  let bomb = String.make depth '[' in
  match Json.of_string_result bomb with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "depth bomb parsed"

(* ------------- protocol ---------------------------------------------- *)

let parse_ok line =
  match Protocol.parse ~max_bytes:4096 line with
  | Ok r -> r
  | Error (_, e) -> Alcotest.failf "parse failed: %s" e.Protocol.message

let parse_err line =
  match Protocol.parse ~max_bytes:4096 line with
  | Ok _ -> Alcotest.failf "parse of %S succeeded" line
  | Error (id, e) -> (id, e.Protocol.code)

let test_protocol_parse () =
  let r = parse_ok {|{"id":7,"method":"scan_file","params":{"path":"a.tf"}}|} in
  Alcotest.(check bool) "id echoed" true (r.Protocol.id = Json.Int 7);
  (match r.Protocol.verb with
  | Protocol.Scan_file { path; source } ->
      Alcotest.(check string) "path" "a.tf" path;
      Alcotest.(check bool) "no source" true (source = None)
  | _ -> Alcotest.fail "wrong verb");
  let r = parse_ok {|{"method":"ping"}|} in
  Alcotest.(check bool) "absent id is Null" true (r.Protocol.id = Json.Null);
  List.iter
    (fun (line, want) ->
      let _, code = parse_err line in
      Alcotest.(check string) line want code)
    [
      ({|[1,2]|}, "invalid_request");
      ({|{"id":1}|}, "invalid_request");
      ({|{"method":"frobnicate"}|}, "unknown_method");
      ({|{"method":"scan_file"}|}, "missing_param");
      ({|{"method":"scan_file","params":{"path":3}}|}, "missing_param");
      ({|{"method":"validate","params":{"path":"x","source":5}}|},
       "invalid_request");
      ("not json at all", "parse_error");
    ];
  (* the id still echoes on post-parse failures *)
  let id, _ = parse_err {|{"id":"abc","method":"nope"}|} in
  Alcotest.(check bool) "id echoed on error" true (id = Json.String "abc")

let test_protocol_too_large () =
  let line = String.make 64 ' ' ^ {|{"method":"ping"}|} in
  match Protocol.parse ~max_bytes:32 line with
  | Error (_, e) ->
      Alcotest.(check string) "code" "request_too_large" e.Protocol.code
  | Ok _ -> Alcotest.fail "oversized request accepted"

(* ------------- session + server ------------------------------------- *)

let write_temp name contents =
  let path = Filename.temp_file "zodiac-test-serve" name in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let make_session () =
  match Session.create Session.default_config with
  | Ok s -> s
  | Error e -> Alcotest.failf "session: %s" e

(* Drive the real channel loop: requests from a file, responses to a
   file — the same transport the stdio daemon uses, minus the pipes. *)
let round_trip ?config session requests =
  let req = write_temp ".req" (String.concat "\n" requests ^ "\n") in
  let resp = Filename.temp_file "zodiac-test-serve" ".resp" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove req with Sys_error _ -> ());
      try Sys.remove resp with Sys_error _ -> ())
    (fun () ->
      let ic = open_in req in
      let oc = open_out resp in
      Fun.protect
        ~finally:(fun () ->
          close_in_noerr ic;
          close_out_noerr oc)
        (fun () -> Server.serve_channels ?config session ic oc);
      let ic = open_in resp in
      let n = in_channel_length ic in
      let all =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic n)
      in
      match String.trim all with
      | "" -> []
      | trimmed -> String.split_on_char '\n' trimmed)

let scan_request ?(id = 1) path =
  Printf.sprintf {|{"id":%d,"method":"scan_file","params":{"path":%s}}|} id
    (Json.to_string (Json.String path))

let response_field line name =
  match Json.of_string_result line with
  | Error e -> Alcotest.failf "bad response line %S: %s" line e
  | Ok json -> Json.member name json

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_server_round_trip () =
  let tf = write_temp ".tf" Registry.mssql_db_buggy in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tf with Sys_error _ -> ())
    (fun () ->
      let session = make_session () in
      let responses =
        round_trip session
          [
            {|{"id":1,"method":"ping"}|};
            scan_request ~id:2 tf;
            "utter { garbage";
            {|{"id":4,"method":"list_checks"}|};
            {|{"id":5,"method":"stats"}|};
            {|{"id":6,"method":"shutdown"}|};
            {|{"id":7,"method":"ping"}|};
          ]
      in
      (* the post-shutdown ping is never answered *)
      Alcotest.(check int) "six responses" 6 (List.length responses);
      let nth = List.nth responses in
      Alcotest.(check bool) "ping ok" true
        (response_field (nth 0) "ok" = Json.Bool true);
      (* the daemon's SARIF equals the one-shot scan path, byte for byte *)
      let checks = Session.checks session in
      let findings =
        match Scan.scan_file ~provider:Zodiac_azure.Azure.provider ~checks tf with
        | Ok fs -> fs
        | Error e -> Alcotest.failf "one-shot scan: %s" e
      in
      Alcotest.(check bool) "known-bad file flagged" true (findings <> []);
      let oneshot = Sarif.to_string findings in
      let daemon =
        Json.to_string ~pretty:true (response_field (nth 1) "result") ^ "\n"
      in
      Alcotest.(check string) "resident ≡ one-shot SARIF" oneshot daemon;
      (* the malformed line got a structured error, and serving went on *)
      Alcotest.(check bool) "garbage answered not-ok" true
        (response_field (nth 2) "ok" = Json.Bool false);
      Alcotest.(check bool) "parse_error code" true
        (Json.member "code" (response_field (nth 2) "error")
        = Json.String "parse_error");
      Alcotest.(check bool) "list_checks ok" true
        (response_field (nth 3) "ok" = Json.Bool true);
      Alcotest.(check bool) "stats counted the scan" true
        (Json.member "files_scanned" (response_field (nth 4) "result")
        = Json.Int 1);
      let gc name = Json.int_value (Json.member name (Json.member "gc" (response_field (nth 4) "result"))) in
      (match (gc "heap_words", gc "top_heap_words", gc "minor_collections", gc "major_collections") with
      | Some heap, Some top, Some minor, Some major ->
          Alcotest.(check bool) "gc figures" true (0 < heap && heap <= top && minor >= 0 && major >= 0)
      | _ -> Alcotest.fail "stats lacks the gc figures");
      Alcotest.(check bool) "shutdown acknowledged" true
        (response_field (nth 5) "result" = Json.Obj [ ("stopping", Json.Bool true) ]);
      Alcotest.(check bool) "session stopping" true (Session.stopping session))

let test_server_deadline () =
  let session = make_session () in
  (* a negative deadline is already exceeded when the handler returns:
     deterministic without sleeping *)
  let config = { Server.default_config with Server.deadline_ms = Some (-1) } in
  let resp = Server.handle_line ~config session {|{"id":1,"method":"ping"}|} in
  Alcotest.(check bool) "deadline_exceeded" true
    (Json.member "code" (Json.member "error" resp)
    = Json.String "deadline_exceeded")

let test_server_oversized_line () =
  let session = make_session () in
  let config = { Server.default_config with Server.max_request_bytes = 64 } in
  let long =
    Printf.sprintf {|{"id":1,"method":"scan_file","params":{"path":"%s"}}|}
      (String.make 256 'a')
  in
  (* the channel loop drains the oversized line, answers a structured
     error, and keeps serving the next request *)
  let responses = round_trip ~config session [ long; {|{"id":2,"method":"ping"}|} ] in
  Alcotest.(check int) "both lines answered" 2 (List.length responses);
  Alcotest.(check bool) "request_too_large" true
    (Json.member "code" (response_field (List.nth responses 0) "error")
    = Json.String "request_too_large");
  Alcotest.(check bool) "ping after oversized line still served" true
    (response_field (List.nth responses 1) "ok" = Json.Bool true);
  let resp = Server.handle_line ~config session long in
  Alcotest.(check bool) "handle_line guards too" true
    (Json.member "code" (Json.member "error" resp)
    = Json.String "request_too_large")

(* ------------- the channel reader ----------------------------------- *)

(* The per-byte bounded reader and channel loop the daemon used before
   it read in chunks, kept verbatim as the reference [serve_channels]
   must answer the same bytes as. *)
module Reference = struct
  let read_line_bounded ic limit =
    let buf = Buffer.create 256 in
    let rec drain () =
      match input_char ic with
      | exception End_of_file -> `Oversized
      | '\n' -> `Oversized
      | _ -> drain ()
    in
    let rec go () =
      match input_char ic with
      | exception End_of_file ->
          if Buffer.length buf = 0 then `Eof else `Line (Buffer.contents buf)
      | '\n' -> `Line (Buffer.contents buf)
      | c ->
          if Buffer.length buf > limit then drain ()
          else begin
            Buffer.add_char buf c;
            go ()
          end
    in
    go ()

  let respond oc json =
    output_string oc (Json.to_string json);
    output_char oc '\n';
    flush oc

  let serve_channels ~(config : Server.config) session ic oc =
    let rec loop () =
      if Session.stopping session then ()
      else
        match read_line_bounded ic config.max_request_bytes with
        | `Eof -> ()
        | `Oversized ->
            respond oc
              (Protocol.error_response ~id:Json.Null
                 {
                   Protocol.code = "request_too_large";
                   message =
                     Printf.sprintf "request line exceeds the %d-byte limit"
                       config.max_request_bytes;
                 });
            loop ()
        | `Line line when String.trim line = "" -> loop ()
        | `Line line ->
            respond oc (Server.handle_line ~config session line);
            loop ()
    in
    loop ()
end

let read_all path = In_channel.with_open_bin path In_channel.input_all

(* The reply bytes of one connection that sends [input], served from a
   file by [serve] on a fresh session. *)
let replies serve ~limit input =
  let config = { Server.default_config with Server.max_request_bytes = limit } in
  let req = write_temp ".req" input in
  let resp = Filename.temp_file "zodiac-test-serve" ".resp" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove req with Sys_error _ -> ());
      try Sys.remove resp with Sys_error _ -> ())
    (fun () ->
      let session = make_session () in
      In_channel.with_open_bin req (fun ic ->
          Out_channel.with_open_bin resp (fun oc -> serve ~config session ic oc));
      read_all resp)

let chunk = 65536

(* A request of exactly [len] bytes where it can be: a [ping] padded
   with leading blanks, or garbage of that length. *)
let padded_ping id len =
  let ping = Printf.sprintf {|{"id":%d,"method":"ping"}|} id in
  String.make (max 0 (len - String.length ping)) ' ' ^ ping

type piece = Ping of int | Garbage of int | Blank of string | List_checks | Shutdown

let piece_gen ~limit =
  let open QCheck.Gen in
  let len =
    oneof
      [
        map (fun d -> max 0 (limit + d)) (int_range (-2) 2);
        int_range 0 (limit + 3);
        int_range (chunk - 40) (chunk + 40);
        int_range 0 (3 * chunk);
      ]
  in
  frequency
    [
      (8, map (fun n -> Ping n) len);
      (2, map (fun n -> Garbage n) len);
      (3, map (fun b -> Blank b) (oneofl [ ""; "   "; "\t"; "\r" ]));
      (1, return List_checks);
      (1, return Shutdown);
    ]

let connection_gen =
  let open QCheck.Gen in
  let* limit =
    frequency [ (3, int_range 16 300); (1, int_range (chunk - 200) (chunk + 200)) ]
  in
  let* pieces = list_size (int_range 1 24) (piece_gen ~limit) in
  let* final_newline = frequency [ (2, return true); (1, return false) ] in
  let lines =
    List.mapi
      (fun id -> function
        | Ping n -> padded_ping id n
        | Garbage n -> String.make n 'x'
        | Blank b -> b
        | List_checks -> Printf.sprintf {|{"id":%d,"method":"list_checks"}|} id
        | Shutdown -> {|{"id":0,"method":"shutdown"}|})
      pieces
  in
  return
    (limit, String.concat "\n" lines ^ if final_newline then "\n" else "")

let prop_reader_matches_reference =
  QCheck.Test.make ~name:"serve_channels ≡ per-byte reference reader" ~count:150
    (QCheck.make
       ~print:(fun (limit, input) ->
         Printf.sprintf "limit %d, %d bytes, line lengths [%s]" limit
           (String.length input)
           (String.concat "; "
              (List.map
                 (fun l -> string_of_int (String.length l))
                 (String.split_on_char '\n' input))))
       connection_gen)
    (fun (limit, input) ->
      String.equal
        (replies (fun ~config -> Server.serve_channels ~config) ~limit input)
        (replies Reference.serve_channels ~limit input))

(* A complete line is answered while its writer keeps the pipe open:
   the reader must not wait to fill a chunk. *)
let test_reader_answers_open_pipe () =
  let session = make_session () in
  let req_r, req_w = Unix.pipe () and resp_r, resp_w = Unix.pipe () in
  let server =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr req_r in
        let oc = Unix.out_channel_of_descr resp_w in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic; close_out_noerr oc)
          (fun () -> Server.serve_channels session ic oc))
  in
  let ping = {|{"id":1,"method":"ping"}|} ^ "\n" in
  ignore (Unix.write_substring req_w ping 0 (String.length ping));
  let answered =
    match Unix.select [ resp_r ] [] [] 10.0 with
    | [], _, _ -> None
    | _ ->
        let buf = Bytes.create 4096 in
        Some (Bytes.sub_string buf 0 (Unix.read resp_r buf 0 4096))
  in
  (* closing the writer ends the connection whether or not it answered *)
  Unix.close req_w;
  Domain.join server;
  Unix.close resp_r;
  match answered with
  | None -> Alcotest.fail "no reply within 10 s while the writer held the pipe open"
  | Some reply ->
      Alcotest.(check bool) "ping answered" true
        (String.starts_with ~prefix:{|{"id":1,"ok":true|} reply)

(* A multi-megabyte line past a 64-byte limit is drained, not gathered:
   the read allocates far less than the line, and the next request is
   served. *)
let test_reader_drains_huge_line () =
  let session = make_session () in
  let config = { Server.default_config with Server.max_request_bytes = 64 } in
  let huge = 4 lsl 20 in
  let req =
    write_temp ".req"
      (String.make huge 'x' ^ "\n" ^ {|{"id":2,"method":"ping"}|} ^ "\n")
  in
  let resp = Filename.temp_file "zodiac-test-serve" ".resp" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove req with Sys_error _ -> ());
      try Sys.remove resp with Sys_error _ -> ())
    (fun () ->
      let allocated =
        In_channel.with_open_bin req (fun ic ->
            Out_channel.with_open_bin resp (fun oc ->
                let before = Gc.allocated_bytes () in
                Server.serve_channels ~config session ic oc;
                Gc.allocated_bytes () -. before))
      in
      Alcotest.(check bool)
        (Printf.sprintf "allocated %.0f bytes for a %d-byte line" allocated huge)
        true
        (allocated < float_of_int (huge / 16));
      match String.split_on_char '\n' (String.trim (read_all resp)) with
      | [ refused; served ] ->
          Alcotest.(check bool) "request_too_large" true
            (Json.member "code" (response_field refused "error")
            = Json.String "request_too_large");
          Alcotest.(check bool) "next request served" true
            (response_field served "ok" = Json.Bool true)
      | lines -> Alcotest.failf "expected two replies, got %d" (List.length lines))

let test_validate_verbs () =
  let good = write_temp ".tf" Registry.mssql_db_fixed in
  let bad = write_temp ".tf" Registry.mssql_db_buggy in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove good with Sys_error _ -> ());
      try Sys.remove bad with Sys_error _ -> ())
    (fun () ->
      let session = make_session () in
      let validate path =
        match
          Session.handle session
            (Protocol.Validate { path; source = None })
        with
        | Ok json -> Json.member "deployable" json
        | Error e -> Alcotest.failf "validate: %s" e.Protocol.message
      in
      Alcotest.(check bool) "fixed program deploys" true
        (validate good = Json.Bool true);
      Alcotest.(check bool) "buggy program fails" true
        (validate bad = Json.Bool false);
      match
        Session.handle session
          (Protocol.Validate { path = "/nonexistent.tf"; source = None })
      with
      | Error e ->
          Alcotest.(check string) "validate_error" "validate_error"
            e.Protocol.code
      | Ok _ -> Alcotest.fail "missing file validated")

(* ------------- SARIF ------------------------------------------------- *)

let finding ~file ~line ~rule =
  {
    Sarif.rule_id = rule;
    message = "m:" ^ rule;
    bindings = [ ("r", "T." ^ rule) ];
    explanation = "because";
    file;
    line;
  }

let test_sarif_deterministic () =
  let shuffled =
    [
      finding ~file:"b.tf" ~line:9 ~rule:"R2";
      finding ~file:"a.tf" ~line:5 ~rule:"R3";
      finding ~file:"a.tf" ~line:2 ~rule:"R1";
      finding ~file:"a.tf" ~line:2 ~rule:"R1";  (* duplicate collapses *)
      finding ~file:"a.tf" ~line:5 ~rule:"R2";
    ]
  in
  let doc = Sarif.document shuffled in
  let results = Json.to_list (Json.member "results" (List.hd (Json.to_list (Json.member "runs" doc)))) in
  let keys =
    List.map
      (fun r ->
        let loc = List.hd (Json.to_list (Json.member "locations" r)) in
        let phys = Json.member "physicalLocation" loc in
        ( Option.get
            (Json.string_value
               (Json.member "uri" (Json.member "artifactLocation" phys))),
          Option.get
            (Json.int_value
               (Json.member "startLine" (Json.member "region" phys))),
          Option.get (Json.string_value (Json.member "ruleId" r)) ))
      results
  in
  Alcotest.(check bool) "sorted by (file, line, rule) and deduped" true
    (keys
    = [
        ("a.tf", 2, "R1"); ("a.tf", 5, "R2"); ("a.tf", 5, "R3");
        ("b.tf", 9, "R2");
      ]);
  (* permutation-invariant and byte-stable *)
  Alcotest.(check string) "order-insensitive bytes"
    (Sarif.to_string shuffled)
    (Sarif.to_string (List.rev shuffled));
  (* no wall-clock unless asked *)
  Alcotest.(check bool) "no invocations by default" true
    (Json.member "invocations" (List.hd (Json.to_list (Json.member "runs" doc)))
    = Json.Null);
  let stamped = Sarif.document ~timestamp:"2026-08-08T00:00:00Z" shuffled in
  Alcotest.(check bool) "timestamp present when requested" true
    (Json.member "invocations"
       (List.hd (Json.to_list (Json.member "runs" stamped)))
    <> Json.Null)

let test_line_index () =
  let idx =
    Sarif.index_tokens (Zodiac_hcl.Lexer.tokenize Registry.mssql_db_buggy)
  in
  let server_line =
    Sarif.resource_line idx
      { Zodiac_iac.Resource.rtype = "SQLSERVER"; rname = "s" }
  in
  let db_line =
    Sarif.resource_line idx { Zodiac_iac.Resource.rtype = "SQLDB"; rname = "d" }
  in
  Alcotest.(check bool) "server block located" true (server_line > 1);
  Alcotest.(check bool) "db block after server" true (db_line > server_line);
  Alcotest.(check int) "unknown resource falls back to 1" 1
    (Sarif.resource_line idx
       { Zodiac_iac.Resource.rtype = "NOPE"; rname = "x" })

(* Finding lines come from the tokens the scan compiled; they must stay
   what lexing the source a second time gave. The source puts comments
   and blank lines before the first resource, an attribute and a
   nested block named [resource] inside it, and declares the database
   twice: the program keeps the later block, the line index the first
   header. *)
let decorated_mssql =
  {|# Leading comment.

// another comment
/* a block
   comment */


resource "azurerm_mssql_server" "s" {
  name                   = "example-sqlserver"
  location               = "westeurope"
  version                = "12.0"
  administrator_login    = "sqladmin"
  administrator_password = "Sup3rSecret!"
  resource = "an attribute named resource"
  resource "azurerm_mssql_database" "d" {
    note = "a nested block named resource"
  }
}

resource "azurerm_mssql_database" "d" {
  name        = "example-db"
  server_id   = azurerm_mssql_server.s.id
  sku         = "Basic"
  max_size_gb = 250
}

resource "azurerm_mssql_database" "d" {
  name        = "duplicate-db"
  server_id   = azurerm_mssql_server.s.id
  sku         = "Basic"
  max_size_gb = 300
}
|}

let test_finding_lines () =
  let provider = Zodiac_azure.Azure.provider in
  let checks = Scan.ground_truth_entries provider in
  let lines_of = function
    | Ok findings -> List.sort_uniq compare (List.map (fun f -> f.Sarif.line) findings)
    | Error e -> Alcotest.failf "scan: %s" e
  in
  Alcotest.(check (list int)) "db findings at the first db header" [ 20 ]
    (lines_of (Scan.scan_source ~provider ~checks ~file:"p.tf" decorated_mssql));
  let idx = Sarif.index_tokens (Zodiac_hcl.Lexer.tokenize decorated_mssql) in
  let line rtype rname = Sarif.resource_line idx { Zodiac_iac.Resource.rtype; rname } in
  Alcotest.(check (list int)) "raw and canonical headers" [ 8; 8; 20; 20 ]
    [
      line "azurerm_mssql_server" "s"; line "SQLSERVER" "s";
      line "azurerm_mssql_database" "d"; line "SQLDB" "d";
    ];
  (* An interpolated label is not plain: the header is skipped and the
     walk resumes at its labels, so the next header is still found. The
     scan itself refuses such a block. *)
  let interpolated =
    "\n\nresource \"${var.kind}\" \"x\" {\n}\nresource \"azurerm_mssql_server\" \"a${var.n}\" {\n}\n\nresource \"azurerm_mssql_server\" \"t\" {\n}\n"
  in
  let idx = Sarif.index_tokens (Zodiac_hcl.Lexer.tokenize interpolated) in
  Alcotest.(check (list int)) "interpolated labels skipped" [ 1; 1; 8 ]
    [
      Sarif.resource_line idx { Zodiac_iac.Resource.rtype = "${var.kind}"; rname = "x" };
      Sarif.resource_line idx { Zodiac_iac.Resource.rtype = "SQLSERVER"; rname = "a" };
      Sarif.resource_line idx { Zodiac_iac.Resource.rtype = "SQLSERVER"; rname = "t" };
    ];
  Alcotest.(check (result (list int) string)) "interpolated label refused"
    (Error "p.tf: parse error: expected '{' opening block body, found string (line 3)")
    (Result.map
       (List.map (fun f -> f.Sarif.line))
       (Scan.scan_source ~provider ~checks ~file:"p.tf" interpolated));
  (* Plan JSON carries no positions: every finding stays at line 1. *)
  let prog =
    match Zodiac_hcl.Compile.compile_string ~type_map:provider.Zodiac_provider.Provider.of_terraform decorated_mssql with
    | Ok (prog, _) -> prog
    | Error e -> Alcotest.failf "compile: %s" e
  in
  let plan = Zodiac_hcl.Plan.to_string ~type_name:provider.Zodiac_provider.Provider.to_terraform prog in
  Alcotest.(check (list int)) "plan findings at line 1" [ 1 ]
    (lines_of (Scan.scan_plan_source ~provider ~checks ~file:"plan.json" plan))

let test_scan_directory () =
  let dir = Filename.temp_file "zodiac-test-serve" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let sub = Filename.concat dir "sub" in
  Unix.mkdir sub 0o755;
  let write name contents =
    let oc = open_out (Filename.concat dir name) in
    output_string oc contents;
    close_out oc
  in
  write "bad.tf" Registry.mssql_db_buggy;
  write "good.tf" Registry.mssql_db_fixed;
  write "notes.txt" "not hcl";
  let oc = open_out (Filename.concat sub "broken.hcl") in
  output_string oc "resource \"x\" {";
  close_out oc;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [
          Filename.concat dir "bad.tf"; Filename.concat dir "good.tf";
          Filename.concat dir "notes.txt"; Filename.concat sub "broken.hcl";
        ];
      (try Unix.rmdir sub with Unix.Unix_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let files = Scan.hcl_files dir in
      Alcotest.(check int) "two .tf + one .hcl" 3 (List.length files);
      let checks = Scan.ground_truth_entries Zodiac_azure.Azure.provider in
      match
        Scan.scan_directory ~provider:Zodiac_azure.Azure.provider ~jobs:2
          ~checks dir
      with
      | Error e -> Alcotest.failf "scan_directory: %s" e
      | Ok (findings, errors) ->
          Alcotest.(check bool) "findings from bad.tf" true (findings <> []);
          Alcotest.(check int) "one unparsable file" 1 (List.length errors);
          Alcotest.(check bool) "error names the file" true
            (String.length (fst (List.hd errors)) > 0))

(* A directory given where one file is expected: the one-shot scan and
   the daemon's scan_file both name it as a directory and point to
   scan_directory, rather than surfacing the read's EOVERFLOW. *)
let test_scan_file_on_directory () =
  let dir = Filename.temp_file "zodiac-test-serve" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let names_directory what message =
        Alcotest.(check bool)
          (Printf.sprintf "%s names the directory: %s" what message)
          true
          (List.for_all (contains message) [ dir; "is a directory"; "scan_directory" ])
      in
      let checks = Scan.ground_truth_entries Zodiac_azure.Azure.provider in
      (match Scan.scan_file ~provider:Zodiac_azure.Azure.provider ~checks dir with
      | Error e -> names_directory "Scan.scan_file" e
      | Ok _ -> Alcotest.fail "a directory scanned as a file");
      let resp = Server.handle_line (make_session ()) (scan_request dir) in
      Alcotest.(check bool) "daemon answers not-ok" true
        (Json.member "ok" resp = Json.Bool false);
      match Json.member "message" (Json.member "error" resp) with
      | Json.String message -> names_directory "daemon scan_file" message
      | _ -> Alcotest.fail "error reply without a message")

(* ------------- concurrency ------------------------------------------- *)

(* Live client connections opened through [connect], so the harness
   can hang them all up before shutting the server down — a failing
   assertion must not leave a worker parked on an open socket (the
   shutdown request would queue behind it forever). *)
let live_fds = ref []
let live_lock = Mutex.create ()

let hang_up_all () =
  Mutex.lock live_lock;
  let fds = !live_fds in
  live_fds := [];
  Mutex.unlock live_lock;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds

(* Run [f session socket_path] against a live [serve_socket] server on
   its own domain; always shuts the server down and joins it. *)
let with_server ?(max_clients = 2) ?deadline_ms f =
  let path = Filename.temp_file "zodiac-test-serve" ".sock" in
  Sys.remove path;
  let session = make_session () in
  let config =
    { Server.default_config with Server.max_clients; deadline_ms }
  in
  let srv =
    Domain.spawn (fun () -> Server.serve_socket ~config session ~path)
  in
  Fun.protect
    ~finally:(fun () ->
      (* free every worker, then a best-effort shutdown request *)
      hang_up_all ();
      (if not (Session.stopping session) then
         try
           let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
           Unix.connect fd (Unix.ADDR_UNIX path);
           let msg = {|{"id":0,"method":"shutdown"}|} ^ "\n" in
           ignore (Unix.write_substring fd msg 0 (String.length msg));
           let buf = Bytes.create 256 in
           (try ignore (Unix.read fd buf 0 256) with Unix.Unix_error _ -> ());
           Unix.close fd
         with Unix.Unix_error _ | Sys_error _ -> ());
      Domain.join srv)
    (fun () -> f session path)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go n =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when n > 0 ->
        Unix.sleepf 0.01;
        go (n - 1)
  in
  go 200;
  Mutex.lock live_lock;
  live_fds := fd :: !live_fds;
  Mutex.unlock live_lock;
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

(* Close one tracked connection (and only once — never a second close
   of a recycled fd number). *)
let hang_up fd =
  Mutex.lock live_lock;
  let mine = List.memq fd !live_fds in
  live_fds := List.filter (fun f -> f != fd) !live_fds;
  Mutex.unlock live_lock;
  if mine then try Unix.close fd with Unix.Unix_error _ -> ()

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let source_scan_request ~id ~path src =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int id);
         ("method", Json.String "scan_file");
         ( "params",
           Json.Obj
             [ ("path", Json.String path); ("source", Json.String src) ] );
       ])

let response_id line = response_field line "id"

let test_concurrent_clients () =
  with_server ~max_clients:2 (fun _session path ->
      let fd_a, ic_a, oc_a = connect path in
      let fd_b, ic_b, oc_b = connect path in
      (* interleave requests across both live connections; each client
         must get exactly its own ids back, in its own send order *)
      send oc_a {|{"id":1,"method":"ping"}|};
      send oc_b {|{"id":11,"method":"ping"}|};
      send oc_a (source_scan_request ~id:2 ~path:"a.tf" Registry.mssql_db_buggy);
      send oc_b (source_scan_request ~id:12 ~path:"b.tf" Registry.mssql_db_buggy);
      send oc_b {|{"id":13,"method":"list_checks"}|};
      let a = List.init 2 (fun _ -> input_line ic_a) in
      let b = List.init 3 (fun _ -> input_line ic_b) in
      Alcotest.(check bool) "A's ids routed to A" true
        (List.map response_id a = [ Json.Int 1; Json.Int 2 ]);
      Alcotest.(check bool) "B's ids routed to B" true
        (List.map response_id b = [ Json.Int 11; Json.Int 12; Json.Int 13 ]);
      (* B's answered requests prove both connections were live at
         once; only now is stats guaranteed to have seen both *)
      send oc_a {|{"id":3,"method":"stats"}|};
      let stats_line = input_line ic_a in
      List.iter
        (fun line ->
          Alcotest.(check bool) "all ok" true
            (response_field line "ok" = Json.Bool true))
        ((a @ b) @ [ stats_line ]);
      let stats = response_field stats_line "result" in
      (match Json.int_value (Json.member "connections_total" stats) with
      | Some n -> Alcotest.(check bool) "two connections counted" true (n >= 2)
      | None -> Alcotest.fail "stats lacks connections_total");
      send oc_a {|{"id":4,"method":"shutdown"}|};
      Alcotest.(check bool) "shutdown acknowledged" true
        (response_field (input_line ic_a) "ok" = Json.Bool true);
      hang_up fd_a;
      hang_up fd_b)

let test_busy_past_max_clients () =
  with_server ~max_clients:1 (fun _session path ->
      (* occupy the single worker: the answered ping proves connection
         A was dequeued, so the admission queue is empty again *)
      let fd_a, ic_a, oc_a = connect path in
      send oc_a {|{"id":1,"method":"ping"}|};
      Alcotest.(check bool) "A served" true
        (response_field (input_line ic_a) "ok" = Json.Bool true);
      (* B fills the one queue slot; C must be refused with "busy" *)
      let fd_b, ic_b, oc_b = connect path in
      Unix.sleepf 0.2;
      let fd_c, ic_c, _ = connect path in
      let busy = input_line ic_c in
      Alcotest.(check bool) "C refused not-ok" true
        (response_field busy "ok" = Json.Bool false);
      Alcotest.(check bool) "busy code" true
        (Json.member "code" (response_field busy "error") = Json.String "busy");
      hang_up fd_c;
      (* hanging up A frees the worker for the queued B *)
      hang_up fd_a;
      send oc_b {|{"id":2,"method":"ping"}|};
      Alcotest.(check bool) "queued B served after A hangs up" true
        (response_field (input_line ic_b) "ok" = Json.Bool true);
      send oc_b {|{"id":3,"method":"shutdown"}|};
      ignore (input_line ic_b);
      hang_up fd_b)

let test_deadline_discards_partial_work () =
  let session = make_session () in
  (* a negative deadline trips the very first in-flight checkpoint, so
     the scan is abandoned mid-request — no file count, no findings,
     no cache entry may survive *)
  (match
     Session.handle ~deadline_ms:(-1) session
       (Protocol.Scan_file
          { path = "x.tf"; source = Some Registry.mssql_db_buggy })
   with
  | Error e ->
      Alcotest.(check string) "deadline_exceeded" "deadline_exceeded"
        e.Protocol.code
  | Ok _ -> Alcotest.fail "over-deadline scan succeeded");
  match Session.handle session Protocol.Stats with
  | Error e -> Alcotest.failf "stats: %s" e.Protocol.message
  | Ok stats ->
      Alcotest.(check bool) "partial scan not counted" true
        (Json.member "files_scanned" stats = Json.Int 0);
      Alcotest.(check bool) "partial findings not counted" true
        (Json.member "findings" stats = Json.Int 0);
      Alcotest.(check bool) "no cache entry from abandoned scan" true
        (Json.member "entries" (Json.member "scan_cache" stats) = Json.Int 0);
      let scan_file = Json.member "scan_file" (Json.member "latency_us" stats) in
      Alcotest.(check bool) "deadline reply timed and counted as an error" true
        (Json.member "count" scan_file = Json.Int 1
        && Json.member "errors" scan_file = Json.Int 1)

let test_scan_cache () =
  let session = make_session () in
  let scan ~path src =
    match
      Session.handle session
        (Protocol.Scan_file { path; source = Some src })
    with
    | Ok sarif -> Json.to_string ~pretty:true sarif
    | Error e -> Alcotest.failf "scan: %s" e.Protocol.message
  in
  let first = scan ~path:"a.tf" Registry.mssql_db_buggy in
  let second = scan ~path:"a.tf" Registry.mssql_db_buggy in
  Alcotest.(check string) "repeat scan byte-identical" first second;
  (* same bytes under another path: cache hit, but the response must
     carry the new path, not the first requester's *)
  let third = scan ~path:"b.tf" Registry.mssql_db_buggy in
  Alcotest.(check bool) "hit reattaches the caller's path" true
    (contains third "b.tf" && not (contains third "a.tf"))

let test_scan_cache_stats () =
  let session = make_session () in
  let scan ~path src =
    match
      Session.handle session (Protocol.Scan_file { path; source = Some src })
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "scan: %s" e.Protocol.message
  in
  scan ~path:"a.tf" Registry.mssql_db_buggy;
  scan ~path:"a.tf" Registry.mssql_db_buggy;
  scan ~path:"b.tf" Registry.mssql_db_buggy;
  scan ~path:"c.tf" Registry.mssql_db_fixed;
  match Session.handle session Protocol.Stats with
  | Error e -> Alcotest.failf "stats: %s" e.Protocol.message
  | Ok stats ->
      let sc = Json.member "scan_cache" stats in
      Alcotest.(check bool) "two distinct contents -> two misses" true
        (Json.member "misses" sc = Json.Int 2);
      Alcotest.(check bool) "repeat + same-bytes-other-path -> two hits" true
        (Json.member "hits" sc = Json.Int 2);
      Alcotest.(check bool) "two entries" true
        (Json.member "entries" sc = Json.Int 2)

(* The daemon's state is bounded by its caches, not by its traffic:
   once 64 sources are cached, 2000 more requests cycling over them
   leave the session's reachable heap exactly as it was. *)
let test_state_bounded () =
  let session = make_session () in
  let sources =
    Array.init 64 (fun i ->
        Printf.sprintf "# source %d\n%s" i Registry.mssql_db_buggy)
  in
  let scan i =
    match
      Session.handle session
        (Protocol.Scan_file
           { path = "a.tf"; source = Some sources.(i mod Array.length sources) })
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "scan: %s" e.Protocol.message
  in
  Array.iteri (fun i _ -> scan i) sources;
  let warm = Obj.reachable_words (Obj.repr session) in
  for i = 0 to 1999 do
    scan i
  done;
  Alcotest.(check int) "reachable words unchanged by 2000 requests" warm
    (Obj.reachable_words (Obj.repr session));
  match Session.handle session Protocol.Stats with
  | Error e -> Alcotest.failf "stats: %s" e.Protocol.message
  | Ok stats ->
      let scan_file = Json.member "scan_file" (Json.member "latency_us" stats) in
      Alcotest.(check (option int)) "every scan_file timed" (Some 2064)
        (Json.int_value (Json.member "count" scan_file));
      Alcotest.(check (option int)) "requests counts them too" (Some 2064)
        (Json.int_value (Json.member "scan_file" (Json.member "requests" stats)))

let test_content_fingerprint () =
  let session = make_session () in
  let scan ~path src =
    match
      Session.handle_extra session
        (Protocol.Scan_file { path; source = Some src })
    with
    | Ok (sarif, extra) -> (sarif, extra)
    | Error e -> Alcotest.failf "scan: %s" e.Protocol.message
  in
  let fp extra =
    match List.assoc_opt "content_fingerprint" extra with
    | Some (Json.String s) -> s
    | Some _ -> Alcotest.fail "content_fingerprint is not a string"
    | None -> Alcotest.fail "content_fingerprint missing"
  in
  let sarif1, e1 = scan ~path:"a.tf" Registry.mssql_db_buggy in
  let _, e2 = scan ~path:"a.tf" Registry.mssql_db_buggy in
  let _, e3 = scan ~path:"b.tf" Registry.mssql_db_fixed in
  (* the miss (e1) and the hit (e2) both report the cache key itself *)
  let expected =
    Scan_cache.fingerprint
      (Scan_cache.create ~checks:(Session.checks session) ())
      ~tag:(Zodiac_provider.Provider.fingerprint Zodiac_azure.Azure.provider)
      ~mode:"hcl" Registry.mssql_db_buggy
  in
  Alcotest.(check string) "miss reports the cache key" expected (fp e1);
  Alcotest.(check string) "hit reports the cache key" expected (fp e2);
  Alcotest.(check bool) "distinct contents, distinct fingerprints" true
    (fp e1 <> fp e3);
  (* the fingerprint rides beside [result] in the envelope: the result
     member itself is byte-identical to what plain [handle] returns *)
  (match
     Session.handle session
       (Protocol.Scan_file { path = "a.tf"; source = Some Registry.mssql_db_buggy })
   with
  | Ok sarif ->
      Alcotest.(check string) "result bytes unchanged by the extra"
        (Json.to_string sarif1) (Json.to_string sarif)
  | Error e -> Alcotest.failf "scan: %s" e.Protocol.message);
  (* control verbs carry no envelope extras *)
  match Session.handle_extra session Protocol.Ping with
  | Ok (_, extra) ->
      Alcotest.(check int) "ping has no extras" 0 (List.length extra)
  | Error e -> Alcotest.failf "ping: %s" e.Protocol.message

let test_scan_batch () =
  let tf = write_temp ".tf" Registry.mssql_db_buggy in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tf with Sys_error _ -> ())
    (fun () ->
      let session = make_session () in
      let files =
        [
          (tf, None);
          ("missing.tf", None);
          ("inline.tf", Some Registry.mssql_db_fixed);
        ]
      in
      match Session.handle session (Protocol.Scan_batch { files }) with
      | Error e -> Alcotest.failf "scan_batch: %s" e.Protocol.message
      | Ok result ->
          let entries = Json.to_list (Json.member "results" result) in
          Alcotest.(check int) "one result per file" 3 (List.length entries);
          (* request order is preserved regardless of completion order *)
          Alcotest.(check bool) "paths in request order" true
            (List.map (fun e -> Json.member "path" e) entries
            = List.map (fun (p, _) -> Json.String p) files);
          let nth = List.nth entries in
          Alcotest.(check bool) "existing file has sarif" true
            (Json.member "sarif" (nth 0) <> Json.Null);
          Alcotest.(check bool) "missing file has error" true
            (Json.member "error" (nth 1) <> Json.Null);
          Alcotest.(check bool) "inline source has sarif" true
            (Json.member "sarif" (nth 2) <> Json.Null);
          Alcotest.(check bool) "counters" true
            (Json.member "files_scanned" result = Json.Int 2
            && Json.member "errors" result = Json.Int 1);
          (* each batch entry equals the equivalent scan_file response *)
          let single =
            match
              Session.handle session
                (Protocol.Scan_file { path = tf; source = None })
            with
            | Ok sarif -> Json.to_string sarif
            | Error e -> Alcotest.failf "scan_file: %s" e.Protocol.message
          in
          Alcotest.(check string) "batch entry ≡ scan_file" single
            (Json.to_string (Json.member "sarif" (nth 0))))

let test_scan_terraform_plan () =
  let session = make_session () in
  let prog =
    match
      Zodiac_hcl.Compile.compile_string
        ~type_map:Zodiac_azure.Catalog.of_terraform Registry.mssql_db_buggy
    with
    | Ok (prog, _) -> prog
    | Error e -> Alcotest.failf "compile: %s" e
  in
  let plan_src =
    Zodiac_hcl.Plan.to_string ~type_name:Zodiac_azure.Catalog.to_terraform prog
  in
  let rule_ids json =
    Json.to_list (Json.member "runs" json)
    |> List.hd
    |> Json.member "results"
    |> Json.to_list
    |> List.map (fun r -> Json.member "ruleId" r)
    |> List.sort_uniq compare
  in
  match
    Session.handle session
      (Protocol.Scan_plan { path = "plan.json"; source = Some plan_src })
  with
  | Error e -> Alcotest.failf "scan_terraform_plan: %s" e.Protocol.message
  | Ok plan_sarif -> (
      Alcotest.(check bool) "plan scan finds violations" true
        (rule_ids plan_sarif <> []);
      match
        Session.handle session
          (Protocol.Scan_file
             { path = "x.tf"; source = Some Registry.mssql_db_buggy })
      with
      | Error e -> Alcotest.failf "scan_file: %s" e.Protocol.message
      | Ok hcl_sarif ->
          (* same program, two input languages: same rules must fire
             (lines differ — plan JSON has no source positions) *)
          Alcotest.(check bool) "plan rules ≡ HCL rules" true
            (rule_ids plan_sarif = rule_ids hcl_sarif);
          (* malformed plan JSON is a structured scan_error *)
          match
            Session.handle session
              (Protocol.Scan_plan { path = "p.json"; source = Some "{}" })
          with
          | Error e ->
              Alcotest.(check string) "scan_error" "scan_error" e.Protocol.code
          | Ok _ -> Alcotest.fail "empty plan scanned")

(* qcheck: N concurrent clients each replaying a request script over
   its own connection get byte-for-byte the responses a sequential
   replay of the same script produces — determinism survives
   concurrency, scheduling and the shared scan cache. *)
let example_sources =
  [|
    Registry.mssql_db_buggy;
    Registry.mssql_db_fixed;
    Registry.appgw_assoc_buggy;
    Registry.appgw_assoc_fixed;
    Registry.quickstart_vm;
  |]

let prop_concurrent_equals_sequential server_path =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 3)
        (list_size (int_range 1 4)
           (int_bound (Array.length example_sources - 1))))
  in
  let arb =
    QCheck.make
      ~print:(fun clients ->
        String.concat ";"
          (List.map
             (fun picks -> String.concat "," (List.map string_of_int picks))
             clients))
      gen
  in
  QCheck.Test.make ~name:"concurrent ≡ sequential SARIF bytes" ~count:5 arb
    (fun clients ->
      let script client_idx picks =
        List.mapi
          (fun i pick ->
            source_scan_request
              ~id:((100 * client_idx) + i)
              ~path:(Printf.sprintf "c%d-%d.tf" client_idx i)
              example_sources.(pick))
          picks
      in
      let scripts = List.mapi script clients in
      let drivers =
        List.map
          (fun lines ->
            Domain.spawn (fun () ->
                let fd, ic, oc = connect server_path in
                let responses =
                  List.map
                    (fun line ->
                      send oc line;
                      input_line ic)
                    lines
                in
                hang_up fd;
                responses))
          scripts
      in
      let concurrent = List.map Domain.join drivers in
      (* sequential replay on a fresh session — same scripts, no
         concurrency, no shared cache state with the server *)
      let replay = make_session () in
      let sequential =
        List.map
          (List.map (fun line ->
               Json.to_string (Server.handle_line replay line)))
          scripts
      in
      concurrent = sequential)

let test_concurrent_determinism () =
  with_server ~max_clients:4 (fun _session path ->
      QCheck.Test.check_exn (prop_concurrent_equals_sequential path))

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_roundtrip_pretty;
          Alcotest.test_case "malformed inputs return Error" `Quick
            test_malformed_returns_error;
          Alcotest.test_case "oversized payload" `Quick test_oversized_payload;
          Alcotest.test_case "depth bomb" `Quick test_deep_nesting_no_crash;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request parsing" `Quick test_protocol_parse;
          Alcotest.test_case "request too large" `Quick test_protocol_too_large;
        ] );
      ( "server",
        [
          Alcotest.test_case "round trip" `Quick test_server_round_trip;
          Alcotest.test_case "deadline" `Quick test_server_deadline;
          Alcotest.test_case "oversized line" `Quick test_server_oversized_line;
          Alcotest.test_case "validate" `Quick test_validate_verbs;
          QCheck_alcotest.to_alcotest prop_reader_matches_reference;
          Alcotest.test_case "line answered on an open pipe" `Quick
            test_reader_answers_open_pipe;
          Alcotest.test_case "multi-MB line drained" `Quick
            test_reader_drains_huge_line;
        ] );
      ( "sarif",
        [
          Alcotest.test_case "deterministic document" `Quick
            test_sarif_deterministic;
          Alcotest.test_case "line index" `Quick test_line_index;
          Alcotest.test_case "finding lines from the scan's tokens" `Quick test_finding_lines;
          Alcotest.test_case "directory scan" `Quick test_scan_directory;
          Alcotest.test_case "scan_file on a directory" `Quick
            test_scan_file_on_directory;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "interleaved clients, id routing" `Quick
            test_concurrent_clients;
          Alcotest.test_case "busy past --max-clients" `Quick
            test_busy_past_max_clients;
          Alcotest.test_case "in-flight deadline discards partial work"
            `Quick test_deadline_discards_partial_work;
          Alcotest.test_case "scan cache reattaches paths" `Quick
            test_scan_cache;
          Alcotest.test_case "scan cache stats" `Quick test_scan_cache_stats;
          Alcotest.test_case "state bounded under traffic" `Quick
            test_state_bounded;
          Alcotest.test_case "content fingerprint" `Quick
            test_content_fingerprint;
          Alcotest.test_case "scan_batch" `Quick test_scan_batch;
          Alcotest.test_case "scan_terraform_plan" `Quick
            test_scan_terraform_plan;
          Alcotest.test_case "concurrent ≡ sequential (qcheck)" `Quick
            test_concurrent_determinism;
        ] );
    ]
