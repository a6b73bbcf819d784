module Program = Zodiac_iac.Program
module Graph = Zodiac_iac.Graph
module Check = Zodiac_spec.Check
module Eval = Zodiac_spec.Eval
module Arm = Zodiac_cloud.Arm

type tp = {
  program : Program.t;
  original : Program.t;
  witness : Eval.assignment;
  source : string;
}

type entry = {
  e_source : string;
  e_prog : Program.t;
  e_graph : Graph.t;
  e_types : string list;
}

type index = entry list

let index corpus =
  List.map
    (fun (e_source, e_prog) ->
      {
        e_source;
        e_prog;
        e_graph = Graph.build e_prog;
        e_types = Program.types e_prog;
      })
    corpus

let check_types (check : Check.t) =
  List.sort_uniq String.compare
    (List.map (fun (b : Check.binding) -> b.Check.btype) check.Check.bindings)

let binding_entries index compiled =
  let wanted = check_types (Eval.check compiled) in
  List.to_seq index
  |> Seq.filter (fun entry -> List.for_all (fun ty -> List.mem ty entry.e_types) wanted)

let find_indexed ?(limit = 3) ~provider ~index check =
  let defaults = Arm.defaults provider in
  let found = ref [] in
  let count = ref 0 in
  (try
     Seq.iter
       (fun entry ->
         if !count >= limit * 3 then raise Exit;
         match Eval.first_witness ~defaults entry.e_graph check with
         | None -> ()
         | Some witness ->
             let keep = List.map snd witness in
             let mdc = Mdc.prune entry.e_prog ~keep in
             let mdc_graph = Graph.build mdc in
             (* the pruned program must still witness the check *)
             if
               Eval.first_witness ~defaults mdc_graph check <> None
               && Eval.holds ~defaults mdc_graph check
             then begin
               incr count;
               found :=
                 {
                   program = mdc;
                   original = entry.e_prog;
                   witness;
                   source = entry.e_source;
                 }
                 :: !found
             end)
       (binding_entries index check)
   with Exit -> ());
  List.sort
    (fun a b -> Int.compare (Program.size a.program) (Program.size b.program))
    !found
  |> List.filteri (fun i _ -> i < limit)

let find ?(limit = 3) ~provider ~corpus check =
  find_indexed ~limit ~provider ~index:(index corpus) check
