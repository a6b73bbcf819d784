(* The Zodiac benchmark harness.

     dune exec bench/main.exe                    # all experiments + micro-benchmarks
     dune exec bench/main.exe -- e4 e8           # selected experiments
     dune exec bench/main.exe -- micro           # micro-benchmarks only

   Experiments e1-e13 regenerate the tables and figures of the paper's
   evaluation section, E4 and E12 through the evaluation library
   zodiac_eval (baseline checkers, live-update planner), which the CLI
   does not link. e18 and e20 take the peak-RSS and wall-clock readings
   of 100k-project mines, each in a spawned CLI process (skipped when
   the binary is not built); e21 compares the providers. See DESIGN.md
   for the index. Correctness, including the byte-identity of sharded,
   multi-process and resumed mines, is checked by `dune runtest`; wall
   time by the zbench benchmark (benchmark/). *)

let usage () =
  Printf.printf "usage: main.exe [%s|micro|all]...\n"
    (String.concat "|" (List.map fst Experiments.by_name));
  exit 1

let () =
  let run_all () =
    List.iter (fun e -> e ()) Experiments.all;
    Micro.run ()
  in
  let (), total =
    Harness.timed "bench.total" (fun () ->
        match List.tl (Array.to_list Sys.argv) with
        | [] | [ "all" ] -> run_all ()
        | args ->
            List.iter
              (fun arg ->
                match arg with
                | "micro" -> Micro.run ()
                | name -> (
                    match List.assoc_opt name Experiments.by_name with
                    | Some e -> e ()
                    | None -> usage ()))
              args)
  in
  match Zodiac_util.Rss.peak_rss_kb () with
  | Some kb ->
      Printf.printf "\n[bench] total wall time %.1fs, peak RSS %.1f MB\n" total
        (float_of_int kb /. 1024.)
  | None -> Printf.printf "\n[bench] total wall time %.1fs\n" total
