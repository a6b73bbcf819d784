(* The Zodiac benchmark harness.

     dune exec bench/main.exe                    # all experiments + micro-benchmarks
     dune exec bench/main.exe -- e4 e8           # selected experiments
     dune exec bench/main.exe -- micro           # micro-benchmarks only

   Experiments e1-e13 regenerate the tables and figures of the paper's
   evaluation section; e18, e20 and e21 are the scale and provider
   experiments beyond it (see DESIGN.md for the index). Correctness is
   checked by `dune runtest`, wall time by the zbench benchmark
   (benchmark/). *)

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
