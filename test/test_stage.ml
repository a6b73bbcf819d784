(* Stage-runner and telemetry tests: cold ≡ warm ≡ uncached
   byte-equality through [Stage.run], the sinks-never-alter-
   artifacts qcheck property, counter-total determinism across jobs,
   corruption fallback, and the result-returning error paths added for
   malformed user input. *)

module Telemetry = Zodiac_util.Telemetry
module Stage = Zodiac_util.Stage
module Cache = Zodiac_util.Cache
module Codec = Zodiac_util.Codec
module Parallel = Zodiac_util.Parallel
module Json = Zodiac_util.Json
module Pipeline = Zodiac.Pipeline
module Checkset = Zodiac.Checkset
module Registry = Zodiac.Registry
module Spec_parser = Zodiac_spec.Spec_parser

(* ------------- helpers ------------------------------------------------ *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    (try
       Array.iter
         (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
         (Sys.readdir dir)
     with Sys_error _ -> ());
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let with_cache_dir name f =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* A toy streamed stage over int lists: element [i] is [i * i].
   [builds] counts folds so tests can tell which path ran. *)
let int_list_artifact =
  {
    Stage.write = (fun b xs -> Codec.write_list Codec.write_int b xs);
    read = Codec.read_list Codec.read_int;
  }

let squares ~lo ~hi = List.init (hi - lo) (fun i -> (lo + i) * (lo + i))

let toy_stage ?(builds = ref 0) n =
  Stage.streamed ~name:"toy" ~key:(Codec.fingerprint [ "toy"; "v1" ]) ~size:n
    ~artifact:int_list_artifact
    (fun ~cache:_ ~telemetry:_ ~jobs:_ ->
      incr builds;
      squares ~lo:0 ~hi:n)

let bytes_of_ints xs =
  let b = Codec.sink () in
  Codec.write_list Codec.write_int b xs;
  Codec.contents b

(* ------------- telemetry unit tests ----------------------------------- *)

let test_null_recorder () =
  let t = Telemetry.null in
  Alcotest.(check bool) "disabled" false (Telemetry.enabled t);
  Alcotest.(check bool) "deterministic" true (Telemetry.deterministic t);
  let v = Telemetry.with_span t "x" (fun () -> Telemetry.count t "c" 3; 41 + 1) in
  Alcotest.(check int) "with_span passes value through" 42 v;
  Alcotest.(check int) "no spans" 0 (List.length (Telemetry.spans t));
  Alcotest.(check (list (pair string int))) "no totals" [] (Telemetry.totals t)

let test_spans_and_counters () =
  let t = Telemetry.create () in
  Telemetry.with_span t "outer" (fun () ->
      Telemetry.count t "b" 2;
      Telemetry.count t "a" 1;
      Telemetry.count t "b" 3;
      Telemetry.note t "k" "v1";
      Telemetry.note t "k" "v2";
      Telemetry.with_span t "inner" (fun () -> Telemetry.count t "a" 10));
  Telemetry.count t "root" 7;
  let spans = Telemetry.spans t in
  Alcotest.(check (list string))
    "span-open order" [ "outer"; "inner" ]
    (List.map (fun s -> s.Telemetry.span_name) spans);
  let outer = List.hd spans and inner = List.nth spans 1 in
  Alcotest.(check int) "outer depth" 0 outer.Telemetry.depth;
  Alcotest.(check int) "inner depth" 1 inner.Telemetry.depth;
  Alcotest.(check (list (pair string int)))
    "counters sorted and summed"
    [ ("a", 1); ("b", 5) ]
    outer.Telemetry.counters;
  Alcotest.(check (list (pair string string)))
    "note overwrites" [ ("k", "v2") ] outer.Telemetry.notes;
  Alcotest.(check bool)
    "clockless spans carry no wall time" true
    (List.for_all (fun s -> s.Telemetry.wall_seconds = None) spans);
  Alcotest.(check (list (pair string int)))
    "totals aggregate spans + root"
    [ ("a", 11); ("b", 5); ("root", 7) ]
    (Telemetry.totals t)

let test_clocked_and_timed () =
  let now = ref 100.0 in
  let t = Telemetry.create ~clock:(fun () -> !now) () in
  Alcotest.(check bool) "not deterministic" false (Telemetry.deterministic t);
  let v, dt =
    Telemetry.timed t "work" (fun () ->
        now := !now +. 1.5;
        "done")
  in
  Alcotest.(check string) "timed value" "done" v;
  Alcotest.(check (float 1e-9)) "timed wall" 1.5 dt;
  (match Telemetry.spans t with
  | [ s ] ->
      Alcotest.(check (option (float 1e-9)))
        "span wall recorded" (Some 1.5) s.Telemetry.wall_seconds
  | _ -> Alcotest.fail "expected one span");
  (* the null recorder's timed reports 0 without touching any clock *)
  let v0, dt0 = Telemetry.timed Telemetry.null "work" (fun () -> 9) in
  Alcotest.(check int) "null timed value" 9 v0;
  Alcotest.(check (float 0.)) "null timed wall" 0.0 dt0

let test_span_closes_on_raise () =
  let t = Telemetry.create () in
  (try
     Telemetry.with_span t "boom" (fun () ->
         Telemetry.count t "n" 1;
         failwith "boom")
   with Failure _ -> ());
  match Telemetry.spans t with
  | [ s ] ->
      Alcotest.(check string) "span closed" "boom" s.Telemetry.span_name;
      Alcotest.(check (option int))
        "counter survived" (Some 1)
        (Telemetry.find_counter s "n")
  | _ -> Alcotest.fail "expected one closed span"

let test_to_json_shape () =
  let t = Telemetry.create () in
  Telemetry.with_span t "s" (fun () -> Telemetry.count t "c" 2);
  let json = Json.of_string (Json.to_string (Telemetry.to_json t)) in
  Alcotest.(check bool)
    "deterministic flag" true
    (Json.member "deterministic" json = Json.Bool true);
  let spans = Json.to_list (Json.member "spans" json) in
  Alcotest.(check int) "one span" 1 (List.length spans);
  let s = List.hd spans in
  Alcotest.(check (option string))
    "name" (Some "s")
    (Json.string_value (Json.member "name" s));
  Alcotest.(check bool)
    "no wall_seconds on deterministic recorder" true
    (Json.member "wall_seconds" s = Json.Null);
  Alcotest.(check (option int))
    "totals" (Some 2)
    (Json.int_value (Json.member "c" (Json.member "totals" json)))

(* ------------- stage runner ------------------------------------------- *)

let test_runner_paths_byte_equal () =
  with_cache_dir "zodiac-test-stage-paths" (fun dir ->
      let cache = Cache.create ~dir () in
      let uncached = Stage.run (toy_stage 50) in
      let builds = ref 0 in
      let cold = Stage.run ~cache (toy_stage ~builds 50) in
      Alcotest.(check int) "cold built" 1 !builds;
      let warm = Stage.run ~cache (toy_stage ~builds 50) in
      Alcotest.(check int) "warm did not build" 1 !builds;
      Alcotest.(check bool)
        "cold ≡ warm ≡ uncached" true
        (String.equal (bytes_of_ints cold) (bytes_of_ints warm)
        && String.equal (bytes_of_ints cold) (bytes_of_ints uncached)))

let test_runner_source_notes () =
  with_cache_dir "zodiac-test-stage-notes" (fun dir ->
      let cache = Cache.create ~dir () in
      let source_of f =
        let t = Telemetry.create () in
        ignore (f t);
        match Telemetry.spans t with
        | [ s ] -> List.assoc_opt "source" s.Telemetry.notes
        | _ -> None
      in
      Alcotest.(check (option string))
        "no cache -> uncached" (Some "uncached")
        (source_of (fun telemetry -> Stage.run ~telemetry (toy_stage 20)));
      Alcotest.(check (option string))
        "first run -> streamed" (Some "streamed")
        (source_of (fun telemetry -> Stage.run ~cache ~telemetry (toy_stage 20)));
      Alcotest.(check (option string))
        "second run -> warm" (Some "warm")
        (source_of (fun telemetry -> Stage.run ~cache ~telemetry (toy_stage 20))))

let test_runner_cache_counters () =
  with_cache_dir "zodiac-test-stage-counters" (fun dir ->
      let cache = Cache.create ~dir () in
      let t = Telemetry.create () in
      ignore (Stage.run ~cache ~telemetry:t (toy_stage 20));
      ignore (Stage.run ~cache ~telemetry:t (toy_stage 20));
      match Telemetry.spans t with
      | [ cold; warm ] ->
          Alcotest.(check (option int))
            "cold misses" (Some 1)
            (Telemetry.find_counter cold "cache.misses");
          Alcotest.(check (option int))
            "cold writes" (Some 1)
            (Telemetry.find_counter cold "cache.writes");
          Alcotest.(check (option int))
            "warm hits" (Some 1)
            (Telemetry.find_counter warm "cache.hits");
          Alcotest.(check (option int))
            "warm misses" (Some 0)
            (Telemetry.find_counter warm "cache.misses")
      | _ -> Alcotest.fail "expected two spans")

let test_runner_corruption_fallback () =
  with_cache_dir "zodiac-test-stage-corrupt" (fun dir ->
      let cache = Cache.create ~dir () in
      let cold = Stage.run ~cache (toy_stage 24) in
      Array.iter
        (fun f ->
          let path = Filename.concat dir f in
          let ic = open_in_bin path in
          let n = in_channel_length ic in
          let data = Bytes.of_string (really_input_string ic n) in
          close_in ic;
          let mid = n / 2 in
          Bytes.set data mid
            (Char.chr (Char.code (Bytes.get data mid) lxor 0xff));
          let oc = open_out_bin path in
          output_bytes oc data;
          close_out oc)
        (Sys.readdir dir);
      let builds = ref 0 in
      let rebuilt = Stage.run ~cache (toy_stage ~builds 24) in
      Alcotest.(check int) "corruption forces a fresh fold" 1 !builds;
      Alcotest.(check bool)
        "rebuilt artifact identical" true
        (String.equal (bytes_of_ints cold) (bytes_of_ints rebuilt)))

(* ------------- sinks never alter artifacts (qcheck) -------------------- *)

(* Run the same toy stage under a random number of event sinks (some of
   them stateful) plus random extra counters; the artifact must be the
   byte-identical value produced with no telemetry at all. *)
let prop_sinks_never_alter_artifacts =
  QCheck.Test.make ~name:"telemetry sinks never alter artifacts" ~count:60
    QCheck.(pair (int_range 1 40) (int_range 0 5))
    (fun (n, sink_count) ->
      let expected = bytes_of_ints (squares ~lo:0 ~hi:n) in
      let seen = ref 0 in
      let sinks =
        List.init sink_count (fun i ->
            if i mod 2 = 0 then fun _ -> incr seen else fun _ -> ())
      in
      let telemetry = Telemetry.create ~sinks () in
      let v =
        Telemetry.with_span telemetry "prop" (fun () ->
            Telemetry.count telemetry "noise" n;
            Stage.run ~telemetry (toy_stage n))
      in
      String.equal expected (bytes_of_ints v)
      && (sink_count < 2 || !seen > 0))

(* ------------- pipeline counter determinism across jobs ---------------- *)

(* Counter totals must be a pure function of the configuration — except
   the [parallel.*] scheduling counters, which legitimately vary with
   [jobs] and the host's domain count. *)
let test_counter_totals_jobs_invariant () =
  let totals jobs =
    let telemetry = Telemetry.create () in
    let config =
      { Pipeline.quick_config with Pipeline.corpus_size = 60; jobs }
    in
    ignore (Pipeline.mine_only ~config ~telemetry ());
    List.filter
      (fun (k, _) -> not (String.length k >= 9 && String.sub k 0 9 = "parallel."))
      (Telemetry.totals telemetry)
  in
  Alcotest.(check (list (pair string int)))
    "totals identical for jobs=1 and jobs=4" (totals 1) (totals 4)

(* ------------- result-returning error paths ---------------------------- *)

let test_error_paths () =
  (match Checkset.save "/nonexistent-dir/zodiac-checks.json" [] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "save into a missing directory must not succeed");
  (match Registry.compile_file "/nonexistent-dir/main.tf" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "compiling a missing file must not succeed");
  (match Registry.compile_file "." with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "compiling a directory must not succeed");
  match Spec_parser.parse_many [ "let r:VM in r.x == 1 => r.y == 2"; "not a check" ] with
  | Error e ->
      Alcotest.(check bool)
        "error names the failing entry" true
        (String.length e >= 8 && String.sub e 0 8 = "check 2:")
  | Ok _ -> Alcotest.fail "malformed batch must not parse"

let () =
  Alcotest.run "stage"
    [
      ( "telemetry",
        [
          Alcotest.test_case "null recorder" `Quick test_null_recorder;
          Alcotest.test_case "spans and counters" `Quick test_spans_and_counters;
          Alcotest.test_case "clocked and timed" `Quick test_clocked_and_timed;
          Alcotest.test_case "span closes on raise" `Quick
            test_span_closes_on_raise;
          Alcotest.test_case "to_json shape" `Quick test_to_json_shape;
        ] );
      ( "runner",
        [
          Alcotest.test_case "paths byte-equal" `Quick
            test_runner_paths_byte_equal;
          Alcotest.test_case "source notes" `Quick test_runner_source_notes;
          Alcotest.test_case "cache counters" `Quick test_runner_cache_counters;
          Alcotest.test_case "corruption fallback" `Quick
            test_runner_corruption_fallback;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_sinks_never_alter_artifacts ] );
      ( "pipeline",
        [
          Alcotest.test_case "counter totals jobs-invariant" `Quick
            test_counter_totals_jobs_invariant;
        ] );
      ( "errors", [ Alcotest.test_case "result paths" `Quick test_error_paths ] );
    ]
