(* Tests through the real CLI binary, spawned as a user runs it: the
   `zodiac serve` daemon's SARIF against `zodiac scan --format sarif`,
   a forked `mine --workers 2` fleet, a partial-slice resume and a
   resume after `kill -9` against a single-process mine, and the
   `--provider` flag. The binary is a declared dependency of this suite
   (see dune); when it is missing the suite fails rather than falling
   back to an in-process path. *)

module Json = Zodiac_util.Json
module Sarif = Zodiac_serve.Sarif
module Scan = Zodiac_serve.Scan
module Pipeline = Zodiac.Pipeline
module Registry = Zodiac.Registry
module Report = Zodiac.Report

(* Built beside this test: <build>/test/test_cli.exe and
   <build>/bin/zodiac_cli.exe. *)
let zodiac =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "zodiac_cli.exe" ]

(* ------------- helpers ------------------------------------------------ *)

let with_temp suffix contents f =
  let path = Filename.temp_file "zodiac-test-cli" suffix in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_dirs tags f =
  let dirs =
    List.map
      (fun tag ->
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "zodiac-test-cli-%s-%d" tag (Unix.getpid ()))
        in
        rm_rf dir;
        dir)
      tags
  in
  Fun.protect ~finally:(fun () -> List.iter rm_rf dirs) (fun () -> f dirs)

(* Spawn the CLI with [args] (stdin from [stdin], else empty), stderr
   discarded; returns the exit code and stdout. *)
let run ?(stdin = "/dev/null") args =
  if not (Sys.file_exists zodiac) then
    Alcotest.failf "CLI binary not found at %s" zodiac;
  let out = Filename.temp_file "zodiac-test-cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let cmd =
        Printf.sprintf "%s < %s > %s 2>/dev/null"
          (String.concat " " (List.map Filename.quote (zodiac :: args)))
          (Filename.quote stdin) (Filename.quote out)
      in
      let code = Sys.command cmd in
      (code, In_channel.with_open_bin out In_channel.input_all))

let check_exit what code = Alcotest.(check int) (what ^ " exits 0") 0 code

let lines text = String.split_on_char '\n' (String.trim text)

(* The SARIF an in-process scan of the known-bad file [tf] renders:
   what the spawned CLI must print, byte for byte. *)
let in_process_sarif provider tf =
  match Scan.load_checks provider None with
  | Error e -> Alcotest.failf "load checks: %s" e
  | Ok checks -> (
      match Scan.scan_file ~provider ~checks tf with
      | Ok findings when findings <> [] -> Sarif.to_string findings
      | Ok _ -> Alcotest.fail "known-bad file not flagged"
      | Error e -> Alcotest.failf "in-process scan: %s" e)

(* ------------- daemon ≡ one-shot scan --------------------------------- *)

let test_serve_equals_scan () =
  with_temp ".tf" Registry.mssql_db_buggy (fun tf ->
      let code, cli = run [ "scan"; "--format"; "sarif"; "--exit-zero"; tf ] in
      check_exit "scan" code;
      Alcotest.(check string) "spawned scan ≡ in-process scan"
        (in_process_sarif Zodiac_azure.Azure.provider tf)
        cli;
      let requests =
        Json.to_string
          (Json.Obj
             [
               ("id", Json.Int 1);
               ("method", Json.String "scan_file");
               ("params", Json.Obj [ ("path", Json.String tf) ]);
             ])
        ^ "\n" ^ {|{"id":0,"method":"shutdown"}|} ^ "\n"
      in
      with_temp ".req" requests (fun req ->
          let code, out = run ~stdin:req [ "serve"; "--no-cache" ] in
          check_exit "serve" code;
          match lines out with
          | scan_line :: _ -> (
              match Json.of_string_result scan_line with
              | Ok json when Json.member "ok" json = Json.Bool true ->
                  Alcotest.(check string)
                    "spawned daemon SARIF ≡ spawned scan --format sarif" cli
                    (Json.to_string ~pretty:true (Json.member "result" json)
                    ^ "\n")
              | _ -> Alcotest.failf "scan request failed: %s" scan_line)
          | [] -> Alcotest.fail "no daemon response"))

(* [serve --trace F] writes the per-verb aggregate at exit, the one the
   [stats] reply carries as [latency_us]: one entry per verb, however
   many requests, never a span per request. *)
let test_serve_trace () =
  let k = 5 in
  with_temp ".tf" Registry.mssql_db_buggy (fun tf ->
      let scan id =
        Json.to_string
          (Json.Obj
             [
               ("id", Json.Int id);
               ("method", Json.String "scan_file");
               ("params", Json.Obj [ ("path", Json.String tf) ]);
             ])
      in
      let requests =
        String.concat "\n"
          (List.init k (fun i -> scan (i + 1))
          @ [ {|{"id":0,"method":"stats"}|} ])
        ^ "\n"
      in
      with_temp ".req" requests (fun req ->
          with_temp ".json" "" (fun trace ->
              let code, out =
                run ~stdin:req [ "serve"; "--no-cache"; "--trace"; trace ]
              in
              check_exit "serve --trace" code;
              let stats =
                match List.rev (lines out) with
                | last :: _ -> Json.member "result" (Json.of_string last)
                | [] -> Alcotest.fail "no daemon response"
              in
              let written =
                Json.of_string (In_channel.with_open_bin trace In_channel.input_all)
              in
              let latency = Json.member "latency_us" written in
              let verbs =
                match latency with
                | Json.Obj members -> List.map fst members
                | _ -> Alcotest.fail "trace lacks a latency_us object"
              in
              Alcotest.(check (list string)) "one entry per verb"
                [ "scan_file"; "stats" ] verbs;
              Alcotest.(check (option int)) "scan_file counts every request"
                (Some k)
                (Json.int_value
                   (Json.member "count" (Json.member "scan_file" latency)));
              Alcotest.(check bool) "no per-request spans" true
                (Json.member "spans" written = Json.Null);
              Alcotest.(check bool) "stats reports the same scan_file entry" true
                (Json.member "scan_file" (Json.member "latency_us" stats)
                = Json.member "scan_file" latency);
              Alcotest.(check bool) "stats reports the daemon's heap" true
                (match Json.int_value (Json.member "heap_words" (Json.member "gc" stats)) with
                | Some words -> words > 0
                | None -> false))))

(* ------------- forked worker fleet ------------------------------------ *)

(* 120 projects in shards of 40: 3 shards; slice 0/2 owns shards 0 and
   2, slice 1/2 owns shard 1. *)
let projects = "120"
let shard = "40"

let mine ?(workers = 1) dir =
  run
    ([
       "mine"; "--projects"; projects; "--jobs"; "1"; "--cache-dir"; dir;
       "--limit"; "0"; "--shard-size"; shard;
     ]
    @ if workers > 1 then [ "--workers"; string_of_int workers ] else [])

let claim_files dir =
  List.filter
    (fun f -> Filename.check_suffix f ".claim")
    (Array.to_list (Sys.readdir dir))

let shards = Alcotest.(option (triple int int int))

let test_fleet_equals_single () =
  with_dirs [ "w1"; "w2" ] (function
    | [ d1; d2 ] ->
        let code1, _ = mine d1 in
        check_exit "mine --workers 1" code1;
        let code2, out2 = mine ~workers:2 d2 in
        check_exit "mine --workers 2" code2;
        List.iter
          (fun pass ->
            Alcotest.(check (option (pair int int)))
              (pass ^ " fleet: 2 workers, none failed") (Some (2, 0))
              (Report.fleet_counts (lines out2) pass);
            Alcotest.check shards
              (pass ^ " merge pass resumes every shard") (Some (3, 3, 0))
              (Report.fold_counts (lines out2) pass))
          [ "kb"; "mine" ];
        Alcotest.(check bool) "workers=2 finals ≡ workers=1" true
          (Pipeline.final_entries d2 = Pipeline.final_entries d1);
        Alcotest.(check (list string)) "no claim files" [] (claim_files d2)
    | _ -> assert false)

(* Only slice 0/2 of the kb pass ran (its sibling was killed): the next
   plain mine builds exactly the one missing shard and lands on the
   same finals. *)
let test_partial_slice_resume () =
  with_dirs [ "ref"; "partial" ] (function
    | [ reference; partial ] ->
        check_exit "reference mine" (fst (mine reference));
        let code, _ =
          run
            [
              "mine-worker"; "--pass"; "kb"; "--projects"; projects; "--jobs";
              "1"; "--shard-size"; shard; "--cache-dir"; partial; "--slice";
              "0/2";
            ]
        in
        check_exit "mine-worker --slice 0/2" code;
        let code, out = mine partial in
        check_exit "resumed mine" code;
        Alcotest.check shards "kb pass builds only the missing shard"
          (Some (3, 2, 1)) (Report.fold_counts (lines out) "kb");
        Alcotest.(check bool) "resumed finals ≡ reference" true
          (Pipeline.final_entries partial = Pipeline.final_entries reference);
        Alcotest.(check (list string)) "no claim files" [] (claim_files partial)
    | _ -> assert false)

(* Two kb workers are sent SIGKILL as soon as the first shard
   checkpoint lands; a plain mine then resumes exactly the checkpoints
   that survived and builds the rest. 600 projects in shards of 10 is
   60 shards, so the kill usually lands mid-run; when both workers have
   already finished, every shard survives and the same assertions hold.
   A complete checkpoint of a shard that did not survive is planted
   under its [.tmp] name, what a kill between the write and the rename
   leaves: the resume must build that shard, not read it. *)
let kill_shards = 60

let kill_args dir =
  [ "--projects"; "600"; "--jobs"; "1"; "--shard-size"; "10"; "--cache-dir"; dir ]

let kb_checkpoints dir =
  List.filter
    (fun f -> String.starts_with ~prefix:"shard-kb-" f && Filename.check_suffix f ".bin")
    (Array.to_list (Sys.readdir dir))

let copy_file src dst =
  Out_channel.with_open_bin dst (fun oc ->
      Out_channel.output_string oc (In_channel.with_open_bin src In_channel.input_all))

let test_kill_resume () =
  with_dirs [ "kill-ref"; "killed" ] (function
    | [ reference; killed ] ->
        let mine_kill dir = run ("mine" :: "--limit" :: "0" :: kill_args dir) in
        check_exit "reference mine" (fst (mine_kill reference));
        Unix.mkdir killed 0o755;
        let worker k =
          Array.of_list
            (zodiac :: "mine-worker" :: "--pass" :: "kb" :: "--slice"
            :: Printf.sprintf "%d/2" k :: kill_args killed)
        in
        let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
        let pids =
          Fun.protect ~finally:(fun () -> Unix.close devnull) (fun () ->
              List.map
                (fun k -> Unix.create_process zodiac (worker k) devnull devnull devnull)
                [ 0; 1 ])
        in
        let kill_and_reap () =
          List.map
            (fun pid ->
              (* not reaped yet, so the pid is still ours to signal *)
              Unix.kill pid Sys.sigkill;
              snd (Unix.waitpid [] pid))
            pids
        in
        let deadline = Unix.gettimeofday () +. 60. in
        let rec await_checkpoint () =
          if kb_checkpoints killed = [] && Unix.gettimeofday () < deadline then begin
            Unix.sleepf 0.001;
            await_checkpoint ()
          end
        in
        let statuses =
          match await_checkpoint () with
          | () -> kill_and_reap ()
          | exception e ->
              ignore (kill_and_reap ());
              raise e
        in
        let survived = kb_checkpoints killed in
        let survivors = List.length survived in
        if survivors = 0 then Alcotest.fail "the workers checkpointed nothing in 60 s";
        (match
           List.filter (fun f -> not (List.mem f survived)) (kb_checkpoints reference)
         with
        | lost :: _ ->
            copy_file (Filename.concat reference lost)
              (Filename.concat killed (lost ^ ".tmp"))
        | [] -> ());
        Printf.printf "kill -9 landed mid-run for %d of 2 workers; %d of %d shards survived\n"
          (List.length (List.filter (( = ) (Unix.WSIGNALED Sys.sigkill)) statuses))
          survivors kill_shards;
        let code, out = mine_kill killed in
        check_exit "mine after kill -9" code;
        Alcotest.check shards "kb pass resumes exactly the surviving checkpoints"
          (Some (kill_shards, survivors, kill_shards - survivors))
          (Report.fold_counts (lines out) "kb");
        Alcotest.(check bool) "finals after kill -9 ≡ reference" true
          (Pipeline.final_entries killed = Pipeline.final_entries reference);
        Alcotest.(check (list string)) "no claim files" [] (claim_files killed)
    | _ -> assert false)

(* ------------- --provider ---------------------------------------------- *)

(* An aws scan through the CLI prints what the in-process aws scan
   renders (test_provider checks that those rule ids are AWS-'s). *)
let test_provider_flag () =
  with_temp ".tf" Registry.aws_db_buggy (fun tf ->
      let code, out =
        run
          [ "scan"; "--provider"; "aws"; "--format"; "sarif"; "--exit-zero"; tf ]
      in
      check_exit "scan --provider aws" code;
      Alcotest.(check string) "scan --provider aws ≡ in-process aws scan"
        (in_process_sarif Zodiac_aws.Aws.provider tf)
        out;
      let code, _ = run [ "scan"; "--provider"; "nonesuch"; tf ] in
      Alcotest.(check bool) "unknown --provider is an error" true (code <> 0))

let () =
  Alcotest.run "cli"
    [
      ( "serve",
        [
          Alcotest.test_case "spawned daemon ≡ spawned scan" `Quick
            test_serve_equals_scan;
          Alcotest.test_case "--trace writes per-verb stats" `Quick
            test_serve_trace;
        ] );
      ( "mproc",
        [
          Alcotest.test_case "forked --workers 2 ≡ --workers 1" `Quick
            test_fleet_equals_single;
          Alcotest.test_case "slice 0/2 partial resume" `Quick
            test_partial_slice_resume;
          Alcotest.test_case "kill -9 of a fleet, then resume" `Quick
            test_kill_resume;
        ] );
      ( "provider",
        [ Alcotest.test_case "--provider aws / unknown" `Quick test_provider_flag ]
      );
    ]
