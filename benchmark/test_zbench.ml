(* Unit tests for zbench's statistics, spans, bound rule and benchmark
   definition, plus a toy-size pass of every workload through the real
   zodiac binary (path in $ZODIAC_BIN). *)

module Stats = Zbench_lib.Stats
module Spans = Zbench_lib.Spans
module R = Zbench_lib.Results
module W = Zbench_lib.Workloads
module Json = Zodiac_util.Json

let floats = Alcotest.(list (float 1e-9))
let close = Alcotest.float 1e-9

let test_percentile () =
  let hundred = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p50 of 1..100" 50. (Stats.percentile hundred 50.);
  Alcotest.check close "p99 of 1..100" 99. (Stats.percentile hundred 99.);
  Alcotest.check close "p100" 100. (Stats.percentile hundred 100.);
  Alcotest.check close "p0 is the minimum" 1. (Stats.percentile hundred 0.);
  (* nearest rank: an observed sample, never an interpolation *)
  Alcotest.check close "p50 of 4" 2. (Stats.percentile [ 4.; 1.; 3.; 2. ] 50.);
  Alcotest.check close "p99 of few is the max" 7. (Stats.percentile [ 5.; 7.; 6. ] 99.);
  Alcotest.check close "single" 3. (Stats.percentile [ 3. ] 99.)

(* A run's work is fixed by --seconds alone, so both sides of a
   comparison do the same amount. *)
let test_run_length () =
  let full = W.full in
  Alcotest.(check int) "serve_cold requests at 20 s" 40_000 (W.serve_requests full ~seconds:20. ~hot:false);
  Alcotest.(check int) "serve_hot requests at 20 s" 120_000 (W.serve_requests full ~seconds:20. ~hot:true);
  Alcotest.(check int) "validate processes at 20 s" 4 (W.batch_processes ~seconds:20. full.W.validate_every);
  Alcotest.(check int) "mine processes at 20 s" 3 (W.batch_processes ~seconds:20. full.W.mine_every);
  Alcotest.(check int) "at least one" 1 (W.batch_processes ~seconds:0.1 full.W.mine_every)

(* Expected values from Python: statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q xs =
    let a, b = Stats.quartiles xs in
    [ a; b ]
  in
  Alcotest.check floats "1..10" [ 2.75; 8.25 ] (q (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check floats "1..4" [ 1.25; 3.75 ] (q [ 4.; 3.; 2.; 1. ]);
  Alcotest.check floats "two points extrapolate" [ 0.75; 2.25 ] (q [ 1.; 2. ]);
  Alcotest.check close "median even" 2.5 (Stats.median [ 1.; 2.; 3.; 4. ]);
  Alcotest.check close "spread" ((8.25 -. 2.75) /. 5.5) (Stats.spread (List.init 10 (fun i -> float_of_int (i + 1))))

(* A recorder on a hand-driven clock. *)
let fake_recorder () =
  let now = ref 0. in
  (Spans.create ~clock:(fun () -> !now) (), now)

let test_self_time () =
  let t, now = fake_recorder () in
  Spans.with_span t "parent" (fun () ->
      now := 1.;
      Spans.with_span t "a" (fun () -> now := 3.);
      now := 4.;
      Spans.with_span t "b" (fun () ->
          now := 4.5;
          Spans.with_span t "b.inner" (fun () -> now := 5.);
          now := 6.);
      now := 10.);
  let self name = Spans.self_time t (Spans.find t name) in
  Alcotest.check close "parent self = 10 - (2 + 2)" 6. (self "parent");
  Alcotest.check close "b self = 2 - 0.5" 1.5 (self "b");
  Alcotest.check close "leaf self = duration" 2. (self "a");
  Alcotest.check close "covered merges overlaps and clips" 5.
    (Spans.covered ~lo:0. ~hi:10. [ (1., 3.); (2., 4.); (8., 12.) ])

let test_telemetry_spans () =
  let t, now = fake_recorder () in
  let telemetry = Zodiac_util.Telemetry.create ~sinks:[ Spans.sink t ] () in
  Spans.with_span t "bench" (fun () ->
      Zodiac_util.Telemetry.with_span telemetry "stage" (fun () -> now := 2.));
  let bench = Spans.find t "bench" and stage = Spans.find t "stage" in
  Alcotest.(check (option int)) "program span nests under the bench span" (Some bench.Spans.id)
    stage.Spans.parent;
  Alcotest.check close "bench self time excludes the stage" 0. (Spans.self_time t bench)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Stats.valid_name n))
    [ "corpus.s"; "scan_p50_ms"; "serve-hot"; "9lives"; String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S" n) false (Stats.valid_name n))
    [ ""; ".s"; "_x"; "a b"; "a/b"; "p99%"; String.make 65 'a' ]

let test_compare () =
  let verdict = Alcotest.testable (fun ppf v ->
      Format.pp_print_string ppf
        (match v with
        | Stats.Within w -> Printf.sprintf "Within %g" w
        | Stats.Regression w -> Printf.sprintf "Regression %g" w
        | Stats.Unresolved w -> Printf.sprintf "Unresolved %g" w))
      (fun a b ->
        match (a, b) with
        | Stats.Within x, Stats.Within y | Stats.Regression x, Stats.Regression y
        | Stats.Unresolved x, Stats.Unresolved y -> Float.abs (x -. y) < 1e-9
        | _ -> false)
  in
  let steady m = [ m *. 0.99; m; m *. 1.01; m; m *. 0.995 ] in
  let check name expected better a b =
    Alcotest.check verdict name expected (Stats.compare_runs ~better ~bound:0.1 a b)
  in
  check "same medians" (Stats.Within 0.) Stats.Lower (steady 100.) (steady 100.);
  check "5% slower is within a 10% bound" (Stats.Within 0.05) Stats.Lower (steady 100.) (steady 105.);
  check "20% slower regresses" (Stats.Regression 0.2) Stats.Lower (steady 100.) (steady 120.);
  check "higher-is-better: 20% fewer regresses" (Stats.Regression 0.2) Stats.Higher (steady 100.)
    (steady 80.);
  check "higher-is-better: more is better" (Stats.Within (-0.2)) Stats.Higher (steady 100.)
    (steady 120.);
  let noisy = [ 60.; 80.; 100.; 120.; 140. ] in
  check "wide spread is unresolved" (Stats.Unresolved 0.) Stats.Lower noisy noisy;
  check "unless every change run is better" (Stats.Within (-0.5)) Stats.Lower noisy
    [ 49.; 50.; 50.; 51.; 50. ]

let test_sha256 () =
  let check input expected =
    Alcotest.(check string) (Printf.sprintf "sha256 of %d bytes" (String.length input)) expected
      (Zbench_lib.Sha256.digest_hex input)
  in
  check "" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  check "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  check "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  check (String.make 1000 'a') "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"

(* BENCHMARK.json against the benchmark contract it is written to. *)
let test_definition () =
  let j = Json.of_string (Zbench_lib.Proc.read_file "../BENCHMARK.json") in
  let keys = function Json.Obj kv -> List.map fst kv | _ -> [] in
  Alcotest.(check (list string)) "top-level keys"
    [ "command"; "end_to_end"; "paths"; "per_layer"; "run_seconds"; "workloads" ]
    (List.sort compare (keys j));
  Alcotest.(check (list string)) "paths" [ "benchmark" ]
    (List.filter_map Json.string_value (Json.to_list (Json.member "paths" j)));
  Alcotest.(check (list string)) "command" [ "bash"; "benchmark/run.sh" ]
    (List.filter_map Json.string_value (Json.to_list (Json.member "command" j)));
  List.iter
    (fun w ->
      let why = Option.value ~default:"" (Json.string_value (Json.member "why" w)) in
      Alcotest.(check bool) "why is one line of 1-200 characters" true
        (why <> "" && String.length why <= 200 && not (String.contains why '\n')))
    (Json.to_list (Json.member "workloads" j));
  let def = R.definition "../BENCHMARK.json" in
  Alcotest.(check (list string)) "workloads" W.names def.R.workloads;
  let all = def.R.end_to_end @ def.R.per_layer in
  let unit_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
    | _ -> false
  in
  List.iter
    (fun d ->
      Alcotest.(check bool) ("unit of " ^ d.R.name) true
        (d.R.unit <> "" && String.length d.R.unit <= 16 && String.for_all unit_char d.R.unit))
    all;
  let names = List.map (fun d -> d.R.name) all @ def.R.workloads in
  List.iter (fun n -> Alcotest.(check bool) ("valid name " ^ n) true (Stats.valid_name n)) names;
  Alcotest.(check int) "names unique" (List.length names) (List.length (List.sort_uniq compare names));
  List.iter
    (fun d ->
      match d.R.bound with
      | Some b -> Alcotest.(check bool) (d.R.name ^ " bound in (0, 0.25]") true (b > 0. && b <= 0.25)
      | None -> Alcotest.fail (d.R.name ^ " has no bound"))
    def.R.end_to_end;
  match List.find_opt (fun d -> String.equal d.R.name "setup_s") def.R.end_to_end with
  | Some d ->
      Alcotest.(check string) "setup_s unit" "s" d.R.unit;
      Alcotest.(check bool) "setup_s lower is better" true (d.R.better = Stats.Lower);
      Alcotest.(check bool) "setup_s has the largest bound" true
        (List.for_all (fun e -> e.R.bound <= d.R.bound) def.R.end_to_end)
  | None -> Alcotest.fail "no setup_s"

(* Every workload at toy size, untraced, then the traced pass: outputs
   checked, and every metric BENCHMARK.json lists measured with its
   unit. *)
let test_smoke () =
  let zodiac =
    match Sys.getenv_opt "ZODIAC_BIN" with
    | Some z -> z
    | None -> Alcotest.fail "ZODIAC_BIN is not set"
  in
  let def = R.definition "../BENCHMARK.json" in
  let t0 = Unix.gettimeofday () in
  let expect defs (r : W.run) =
    let r = R.conform defs r in
    Alcotest.(check (list string)) (r.W.workload ^ ": no failed check") [] r.W.problems
  in
  List.iter
    (fun w -> expect def.R.end_to_end (W.run ~zodiac ~sizes:W.smoke ~seed:7 ~seconds:1. w))
    W.names;
  List.iter
    (fun w -> expect def.R.per_layer (Zbench_lib.Layers.run ~zodiac ~sizes:W.smoke ~seed:7 w))
    [ "validate"; "serve_hot" ];
  Printf.printf "smoke pass: %.1f s\n" (Unix.gettimeofday () -. t0)

let () =
  Alcotest.run "zbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "run length fixed by --seconds" `Quick test_run_length;
          Alcotest.test_case "quartiles as Python computes them" `Quick test_quartiles;
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "compare and bounds" `Quick test_compare;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time from nested spans" `Quick test_self_time;
          Alcotest.test_case "telemetry spans nest under bench spans" `Quick test_telemetry_spans;
        ] );
      ("sha256", [ Alcotest.test_case "known vectors" `Quick test_sha256 ]);
      ("definition", [ Alcotest.test_case "BENCHMARK.json" `Quick test_definition ]);
      ("smoke", [ Alcotest.test_case "all workloads at toy size" `Slow test_smoke ]);
    ]
