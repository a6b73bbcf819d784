(* Multi-process mining tests: the fixed-slice [Shard_stream.fold_worker]
   (a lone 0/1 worker checkpoints every shard), a qcheck property that
   running every slice K/N builds each shard exactly once and leaves the
   merge fold nothing to build, with artifacts byte-identical to a
   one-shard run, and the crash path: a slice that never ran is rebuilt
   by the merge fold, and only that slice. *)

module Shard_stream = Zodiac_util.Shard_stream
module Cache = Zodiac_util.Cache
module Codec = Zodiac_util.Codec
module Generator = Zodiac_corpus.Generator
module Kb = Zodiac_kb.Kb
module Miner = Zodiac_mining.Miner
module Pipeline = Zodiac.Pipeline

let provider = Zodiac_azure.Azure.provider

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

let corpus_n = 60

let projects =
  Miner.materialize ~provider
    (List.map
       (fun p -> p.Generator.program)
       (Generator.generate_range ~provider ~seed:7 ~lo:0 ~hi:corpus_n ()))

let slice lo hi = List.filteri (fun i _ -> i >= lo && i < hi) projects

let stats_bytes s =
  let b = Codec.sink () in
  Kb.write_stats b s;
  Codec.contents b

let fold_stats ?cache ~shard_size () =
  Shard_stream.fold ?cache ~stage:"t-kb" ~key:"t-kb" ~write:Kb.write_stats
    ~read:Kb.read_stats
    ~load:(fun ~lo ~hi -> slice lo hi)
    ~count:Kb.stats_of_projects ~merge:Kb.merge_stats
    ~init:(Kb.stats_of_projects []) ~total:corpus_n ~shard_size ()

let claim_files dir =
  List.filter
    (fun f -> Filename.check_suffix f ".claim")
    (Array.to_list (Sys.readdir dir))

let config ~total dir =
  {
    Pipeline.quick_config with
    Pipeline.corpus_size = total;
    jobs = 1;
    cache_dir = Some dir;
  }

(* Finals of the one-shard run: the reference every plan must match. *)
let one_shard_finals ~total =
  with_cache_dir "zodiac-test-mproc-ref" (fun dir ->
      ignore (Pipeline.mine_streamed ~config:(config ~total dir) ~shard_size:0 ());
      Pipeline.final_entries dir)

(* Shards of the plan that slice [k]/[n] owns. *)
let slice_size ~total ~shard_size (k, n) =
  List.length
    (List.filter
       (fun (i, _, _) -> i mod n = k)
       (Shard_stream.plan ~total ~shard_size))

let outcome =
  Alcotest.testable
    (fun ppf (o : Shard_stream.outcome) ->
      Format.fprintf ppf "{shards=%d; resumed=%d; built=%d}" o.Shard_stream.shards
        o.Shard_stream.resumed o.Shard_stream.built)
    ( = )

(* ------------- fold_worker --------------------------------------------- *)

let test_worker_checkpoints_all () =
  with_cache_dir "zodiac-test-mproc-worker" (fun dir ->
      let cache = Cache.create ~dir () in
      let reference, _ = fold_stats ~shard_size:13 () in
      let built =
        Shard_stream.fold_worker ~cache ~slice:(0, 1) ~stage:"t-kb" ~key:"t-kb"
          ~write:Kb.write_stats
          ~load:(fun ~lo ~hi -> slice lo hi)
          ~count:Kb.stats_of_projects ~total:corpus_n ~shard_size:13 ()
      in
      Alcotest.(check int) "built all" 5 built;
      (* The parent's fold is the merge pass: everything resumes, and
         the merged value equals the monolithic fold byte for byte. *)
      let merged, outcome = fold_stats ~cache ~shard_size:13 () in
      Alcotest.(check int) "all resumed" 5 outcome.Shard_stream.resumed;
      Alcotest.(check bool)
        "worker checkpoints ≡ monolithic" true
        (String.equal (stats_bytes reference) (stats_bytes merged));
      Alcotest.(check (list string)) "no claim files" [] (claim_files dir))

(* ------------- every slice, then the merge fold (qcheck) ----------------- *)

(* Random (total, shard_size, N) with a plan of at least two shards (a
   one-shard plan never checkpoints). Every slice K/N runs for the kb
   pass, then for the mine pass; each must build exactly the shards it
   owns, which together are the whole plan. The merge fold then resumes
   every shard and builds none, and the finals equal the one-shard
   run's byte for byte. *)
let prop_slices_partition_the_plan =
  let gen =
    QCheck.Gen.(
      int_range 2 40 >>= fun total ->
      int_range 1 (total - 1) >>= fun shard_size ->
      int_range 1 4 >|= fun n -> (total, shard_size, n))
  in
  QCheck.Test.make ~name:"every slice K/N builds each shard once" ~count:25
    (QCheck.make
       ~print:(fun (t, s, n) -> Printf.sprintf "total=%d shard=%d N=%d" t s n)
       gen)
    (fun (total, shard_size, n) ->
      with_cache_dir "zodiac-test-mproc-slices" (fun dir ->
          let config = config ~total dir in
          let shards = List.length (Shard_stream.plan ~total ~shard_size) in
          let run_pass pass =
            List.for_all
              (fun k ->
                Pipeline.mine_worker ~config ~slice:(k, n) ~shard_size ~pass ()
                = slice_size ~total ~shard_size (k, n))
              (List.init n Fun.id)
          in
          let kb_ok = run_pass `Kb in
          let mine_ok = run_pass `Mine in
          let s = Pipeline.mine_streamed ~config ~shard_size () in
          let all_resumed = { Shard_stream.shards; resumed = shards; built = 0 } in
          kb_ok && mine_ok
          && s.Pipeline.s_kb_fold = all_resumed
          && s.Pipeline.s_mine_fold = all_resumed
          && claim_files dir = []
          && Pipeline.final_entries dir = one_shard_finals ~total))

(* ------------- a killed worker ------------------------------------------ *)

(* Of a two-worker fleet, only slice 0/2 ran (worker 1 was killed
   before it checkpointed anything). The merge fold must build exactly
   slice 1's shards, at once, and the finals must not change. Checked
   for a death in the kb pass and in the mine pass. *)
let test_killed_worker pass () =
  let total = corpus_n and shard_size = 13 in
  let reference = one_shard_finals ~total in
  with_cache_dir "zodiac-test-mproc-killed" (fun dir ->
      let config = config ~total dir in
      let shards = List.length (Shard_stream.plan ~total ~shard_size) in
      let slice1 = slice_size ~total ~shard_size (1, 2) in
      let worker pass k =
        ignore (Pipeline.mine_worker ~config ~slice:(k, 2) ~shard_size ~pass ())
      in
      (match pass with
      | `Kb -> worker `Kb 0
      | `Mine ->
          worker `Kb 0;
          worker `Kb 1;
          worker `Mine 0);
      let s = Pipeline.mine_streamed ~config ~shard_size () in
      let rebuilt = { Shard_stream.shards; resumed = shards - slice1; built = slice1 } in
      let all_resumed = { Shard_stream.shards; resumed = shards; built = 0 } in
      let all_built = { Shard_stream.shards; resumed = 0; built = shards } in
      (match pass with
      | `Kb ->
          Alcotest.check outcome "kb pass rebuilds slice 1" rebuilt
            s.Pipeline.s_kb_fold;
          Alcotest.check outcome "mine pass had no workers" all_built
            s.Pipeline.s_mine_fold
      | `Mine ->
          Alcotest.check outcome "kb pass complete" all_resumed
            s.Pipeline.s_kb_fold;
          Alcotest.check outcome "mine pass rebuilds slice 1" rebuilt
            s.Pipeline.s_mine_fold);
      Alcotest.(check bool) "finals ≡ one-shard run" true
        (Pipeline.final_entries dir = reference))

let test_bad_slice () =
  with_cache_dir "zodiac-test-mproc-bad" (fun dir ->
      List.iter
        (fun slice ->
          match
            Pipeline.mine_worker ~config:(config ~total:20 dir) ~slice
              ~shard_size:5 ~pass:`Kb ()
          with
          | _ -> Alcotest.failf "slice %d/%d accepted" (fst slice) (snd slice)
          | exception Invalid_argument _ -> ())
        [ (0, 0); (2, 2); (-1, 3) ])

let () =
  Alcotest.run "mproc"
    [
      ( "worker",
        [
          Alcotest.test_case "checkpoints every shard" `Quick
            test_worker_checkpoints_all;
          Alcotest.test_case "rejects a bad slice" `Quick test_bad_slice;
        ] );
      ( "slices",
        [ QCheck_alcotest.to_alcotest prop_slices_partition_the_plan ] );
      ( "killed worker",
        [
          Alcotest.test_case "kb pass" `Quick (test_killed_worker `Kb);
          Alcotest.test_case "mine pass" `Quick (test_killed_worker `Mine);
        ] );
    ]
