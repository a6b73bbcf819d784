(* Scan a repository corpus for semantic misconfigurations (§5.5).

   Generates a synthetic "GitHub" corpus with a realistic violation
   rate, scans every project against the semantic checks, and reports
   the buggy repositories together with the deployment damage each bug
   would have caused (blast radius).

     dune exec examples/scan_repository.exe *)

module Generator = Zodiac_corpus.Generator
module Arm = Zodiac_cloud.Arm
module Provider = Zodiac_provider.Provider
module Graph = Zodiac_iac.Graph
module Resource = Zodiac_iac.Resource
module Eval = Zodiac_spec.Eval

let () =
  let provider = Zodiac_azure.Azure.provider in
  let projects = Generator.generate ~provider ~violation_rate:0.06 ~seed:1234 ~count:400 () in
  Printf.printf "scanning %d repositories...\n\n" (List.length projects);
  let buggy = ref 0 in
  List.iter
    (fun p ->
      let graph = Graph.build p.Generator.program in
      let findings =
        List.concat_map
          (fun (rule : Provider.rule) ->
            List.map
              (fun assignment -> (rule, assignment))
              (Eval.violations ~defaults:(Arm.defaults provider) graph rule.Provider.compiled))
          (provider.Zodiac_provider.Provider.ground_truth ())
      in
      if findings <> [] then begin
        incr buggy;
        Printf.printf "%s (%s):\n" p.Generator.pname p.Generator.scenario;
        List.iter
          (fun ((rule : Provider.rule), assignment) ->
            Printf.printf "  [%s] %s\n    involving %s\n" rule.Provider.rule_id
              rule.Provider.message
              (String.concat ", "
                 (List.map (fun (_, id) -> Resource.id_to_string id) assignment)))
          findings;
        (* what would have happened at deploy time? *)
        let outcome = Arm.deploy ~provider p.Generator.program in
        (match Arm.first_error outcome with
        | Some f ->
            let radius = Arm.blast_radius p.Generator.program outcome in
            Printf.printf
              "  deployment impact: fails at %s (%s phase); %d resource type(s) halted, %d need rollback\n"
              (Resource.id_to_string f.Arm.resource)
              (Provider.phase_to_string f.Arm.phase)
              (List.length radius.Arm.halted_types)
              (List.length radius.Arm.rollback_types)
        | None -> print_endline "  deployment impact: silent state inconsistency");
        print_newline ()
      end)
    projects;
  Printf.printf "=> %d of %d repositories carry semantic misconfigurations (%.1f%%)\n"
    !buggy (List.length projects)
    (100.0 *. float_of_int !buggy /. float_of_int (List.length projects))
