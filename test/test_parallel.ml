(* The deterministic domain pool: ordering, chunking, exception
   propagation, and the end-to-end jobs-independence contract of the
   pipeline (parallel output bit-identical to sequential, down to the
   number of mutants the scheduler plans). *)

module Parallel = Zodiac_util.Parallel
module Telemetry = Zodiac_util.Telemetry
module Pipeline = Zodiac.Pipeline
module Scheduler = Zodiac_validation.Scheduler
module Kb = Zodiac_kb.Kb
module Check = Zodiac_spec.Check

let test_recommended_jobs () =
  Alcotest.(check bool) "at least one domain" true (Parallel.recommended_jobs () >= 1)

let test_map_ordering () =
  let xs = List.init 257 (fun i -> i) in
  let f x = (x * x) - (3 * x) in
  let expected = List.map f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "map jobs=%d" jobs)
        expected
        (Parallel.map ~jobs f xs))
    [ 1; 2; 3; 4; 8; 300 ];
  Alcotest.(check (list int)) "empty input" [] (Parallel.map ~jobs:4 f [])

let test_mapi_indices () =
  let xs = List.init 100 (fun i -> 100 - i) in
  let f i x = (i, x) in
  Alcotest.(check (list (pair int int)))
    "indices are positions in the input, not in the chunk"
    (List.mapi f xs)
    (Parallel.mapi ~jobs:4 f xs)

let test_chunks_reassemble () =
  List.iter
    (fun (len, jobs) ->
      let xs = List.init len (fun i -> i) in
      let cs = Parallel.map_chunks ~jobs Fun.id xs in
      Alcotest.(check (list int))
        (Printf.sprintf "concat of chunks len=%d jobs=%d" len jobs)
        xs (List.concat cs);
      Alcotest.(check bool) "no empty chunks" true (List.for_all (( <> ) []) cs))
    [ (0, 4); (1, 4); (3, 8); (8, 3); (100, 4); (5, 1) ]

(* The pool's parallelism tests need a second core; on one core every
   call runs in the calling domain, as it should. *)
let require_two_cores () =
  if Parallel.recommended_jobs () < 2 then begin
    print_endline "one core: no second domain to observe";
    Alcotest.skip ()
  end

(* [map_chunks ~jobs:2] over 16 items: each of the two chunks records
   its domain, announces that it started and waits, for at most 10 s,
   to see the other start. Both see each other only when the chunks
   run at the same time on two domains. *)
let rendezvous () =
  let started = Atomic.make 0 in
  Parallel.map_chunks ~jobs:2
    (fun _ ->
      Atomic.incr started;
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      ((Domain.self () :> int), Atomic.get started = 2))
    (List.init 16 Fun.id)

let check_parallel what =
  match rendezvous () with
  | [ (d0, saw0); (d1, saw1) ] ->
      Alcotest.(check bool) (what ^ ": two domains") true (d0 <> d1);
      Alcotest.(check (pair bool bool)) (what ^ ": at once") (true, true) (saw0, saw1)
  | cs -> Alcotest.failf "%s: expected 2 chunks, got %d" what (List.length cs)

let test_chunks_parallel () =
  require_two_cores ();
  check_parallel "first call";
  check_parallel "second call"

let test_nested_map () =
  let xss = List.init 20 (fun i -> List.init (i + 10) (fun j -> i * j)) in
  let f x = (x * 7) + 1 in
  Alcotest.(check (list (list int)))
    "map inside map" (List.map (List.map f) xss)
    (Parallel.map ~jobs:2 (Parallel.map ~jobs:2 f) xss);
  Alcotest.(check (list (list (list int))))
    "map_chunks inside map"
    (List.map (fun xs -> [ List.map f xs ]) xss)
    (Parallel.map ~jobs:2
       (fun xs -> [ List.concat (Parallel.map_chunks ~jobs:2 (List.map f) xs) ])
       xss)

(* Two domains (the daemon's two client workers) call [map] at once:
   one holds the helpers, the other runs inline, both are right. *)
let test_concurrent_callers () =
  let xs = List.init 500 Fun.id in
  let f x = Hashtbl.hash (x * 31) in
  let expected = List.map f xs in
  let caller () =
    List.for_all Fun.id (List.init 50 (fun _ -> Parallel.map ~jobs:2 f xs = expected))
  in
  let other = Domain.spawn caller in
  let here = caller () in
  Alcotest.(check bool) "calling domain" true here;
  Alcotest.(check bool) "other domain" true (Domain.join other)

exception Boom of int

let test_exception_propagation () =
  let xs = List.init 40 (fun i -> i) in
  let f i = if i mod 10 = 3 then raise (Boom i) else i in
  List.iter
    (fun jobs ->
      match Parallel.map ~jobs f xs with
      | _ -> Alcotest.fail "expected an exception"
      | exception Boom i ->
          Alcotest.(check int)
            (Printf.sprintf "lowest-index exception wins, jobs=%d" jobs)
            3 i)
    [ 1; 2; 4 ]

let test_workers_survive_after_exception () =
  (* the pool must be usable again after a failing run *)
  (try ignore (Parallel.map ~jobs:4 (fun _ -> raise Exit) [ 1; 2; 3 ])
   with Exit -> ());
  Alcotest.(check (list int)) "pool still works" [ 2; 4; 6 ]
    (Parallel.map ~jobs:4 (fun x -> 2 * x) [ 1; 2; 3 ])

(* A chunk that raises on a helper must not wedge the pool: the next
   call still gets two domains. *)
let test_pool_survives_failing_chunk () =
  require_two_cores ();
  (match
     Parallel.map_chunks ~jobs:2
       (fun c -> if List.mem 3 c || List.mem 12 c then raise (Boom (List.hd c)))
       (List.init 16 Fun.id)
   with
  | _ -> Alcotest.fail "expected an exception"
  | exception Boom i -> Alcotest.(check int) "lowest chunk's exception wins" 0 i);
  check_parallel "after a failing call"

(* qcheck: parallel map ≡ sequential map for arbitrary inputs and jobs *)
let prop_map_equals_sequential =
  QCheck.Test.make ~count:100 ~name:"Parallel.map ≡ List.map"
    QCheck.(pair (list small_int) (int_range 1 9))
    (fun (xs, jobs) ->
      let f x = Hashtbl.hash (x * 2654435761) in
      Parallel.map ~jobs f xs = List.map f xs)

(* ---- end-to-end: pipeline output is independent of [jobs] ------------ *)

(* The artifacts plus the run's [scheduler.mutations] total (mutants
   planned) and the mutation searches' [solver.*] counts, which must not
   depend on [jobs] either. *)
let run_pipeline jobs =
  let telemetry = Telemetry.create () in
  let a =
    Pipeline.run
      ~config:
        {
          Pipeline.quick_config with
          Pipeline.corpus_size = 150;
          jobs;
          scheduler =
            { Scheduler.default_config with Scheduler.max_iterations = 3 };
        }
      ~telemetry ()
  in
  ( a,
    List.filter
      (fun (name, _) -> name = "scheduler.mutations" || String.starts_with ~prefix:"solver." name)
      (Telemetry.totals telemetry) )

let kb_summary kb =
  ( Kb.size kb,
    List.length (Kb.conn_kinds kb),
    List.length (Kb.types kb),
    List.map
      (fun (c : Kb.conn_kind) ->
        (c.Kb.src_type, c.Kb.src_attr, c.Kb.dst_type, c.Kb.dst_attr, c.Kb.count))
      (Kb.conn_kinds kb) )

let cids checks = List.map (fun (c : Check.t) -> c.Check.cid) checks

let test_pipeline_jobs_independent () =
  let a, a_mutations = run_pipeline 1 in
  let b, b_mutations = run_pipeline 4 in
  Alcotest.(check (list string))
    "identical final checks (order included)"
    (cids a.Pipeline.final_checks)
    (cids b.Pipeline.final_checks);
  Alcotest.(check (list string))
    "identical candidates"
    (cids a.Pipeline.candidates)
    (cids b.Pipeline.candidates);
  Alcotest.(check bool) "identical KB summary" true
    (kb_summary a.Pipeline.kb = kb_summary b.Pipeline.kb);
  Alcotest.(check int) "identical deployment counts"
    a.Pipeline.validation.Scheduler.deployments
    b.Pipeline.validation.Scheduler.deployments;
  Alcotest.(check bool) "identical iteration traces" true
    (a.Pipeline.validation.Scheduler.iterations
    = b.Pipeline.validation.Scheduler.iterations);
  Alcotest.(check bool) "identical engine stats" true
    (a.Pipeline.engine_stats = b.Pipeline.engine_stats);
  let total name = Option.value ~default:0 (List.assoc_opt name a_mutations) in
  Alcotest.(check bool) "mutants planned" true (total "scheduler.mutations" > 0);
  Alcotest.(check int) "every predicate call on one path"
    (total "solver.calls.target" + total "solver.calls.hard" + total "solver.calls.soft")
    (total "solver.calls.slot_form" + total "solver.calls.fallback");
  Alcotest.(check (list (pair string int))) "identical scheduler.mutations and solver counts"
    a_mutations b_mutations

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "recommended jobs" `Quick test_recommended_jobs;
          Alcotest.test_case "map ordering" `Quick test_map_ordering;
          Alcotest.test_case "mapi indices" `Quick test_mapi_indices;
          Alcotest.test_case "chunks reassemble" `Quick test_chunks_reassemble;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "pool survives exceptions" `Quick
            test_workers_survive_after_exception;
          Alcotest.test_case "chunks run on two domains at once" `Quick
            test_chunks_parallel;
          Alcotest.test_case "pool survives a failing chunk" `Quick
            test_pool_survives_failing_chunk;
          Alcotest.test_case "nested map" `Quick test_nested_map;
          Alcotest.test_case "concurrent callers" `Quick test_concurrent_callers;
          QCheck_alcotest.to_alcotest prop_map_equals_sequential;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pipeline jobs=1 ≡ jobs=4" `Slow
            test_pipeline_jobs_independent;
        ] );
    ]
