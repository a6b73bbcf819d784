(* Authoring semantic checks in Zodiac's assertion language, and using
   the validation machinery to test a hypothesis against the cloud.

     dune exec examples/author_checks.exe *)

module Parser = Zodiac_spec.Spec_parser
module Printer = Zodiac_spec.Spec_printer
module Eval = Zodiac_spec.Eval
module Graph = Zodiac_iac.Graph
module Generator = Zodiac_corpus.Generator
module Kb = Zodiac_kb.Kb
module Miner = Zodiac_mining.Miner
module Testcase = Zodiac_validation.Testcase
module Mutation = Zodiac_validation.Mutation
module Arm = Zodiac_cloud.Arm

let () =
  (* Author checks in the concrete syntax of Figure 4. *)
  let hypotheses =
    List.map Parser.parse_exn
      [
        (* a real Azure constraint *)
        "let r:SA in r.tier == 'Premium' => r.replica != 'GZRS'";
        (* a plausible-sounding but wrong one *)
        "let r:SA in r.tier == 'Standard' => r.https_only == true";
      ]
  in
  (* Set up a corpus and KB for test-case generation. *)
  let provider = Zodiac_azure.Azure.provider in
  let projects = Generator.generate ~provider ~seed:77 ~count:300 () in
  let corpus =
    List.map (fun p -> (p.Generator.pname, p.Generator.program)) projects
  in
  let programs = Miner.materialize ~provider (List.map snd corpus) in
  let kb = Kb.build ~provider ~projects:programs () in
  List.iter
    (fun check ->
      Printf.printf "hypothesis: %s\n" (Printer.to_string check);
      let check = Eval.compile check in
      match Testcase.find ~provider ~corpus check with
      | [] -> print_endline "  no positive witness in the corpus\n"
      | tp :: _ -> (
          Printf.printf "  positive test case from %s (%d resources after MDC pruning)\n"
            tp.Testcase.source
            (Zodiac_iac.Program.size tp.Testcase.program);
          assert (Arm.success (Arm.deploy ~provider tp.Testcase.program));
          print_endline "  positive case deploys: OK";
          match
            Mutation.negative ~provider ~kb ~donors:corpus ~target:check ~hard:[] ~soft:[] tp
          with
          | None -> print_endline "  no negative test case exists (UNSAT)\n"
          | Some neg ->
              Printf.printf
                "  negative test case generated (%d attribute change(s), %d added resource(s))\n"
                neg.Mutation.attr_changes neg.Mutation.topo_changes;
              if Arm.success (Arm.deploy ~provider neg.Mutation.program) then
                print_endline
                  "  negative case DEPLOYS — hypothesis falsified (not a cloud rule)\n"
              else
                print_endline
                  "  negative case fails to deploy — hypothesis VALIDATED\n"))
    hypotheses;
  (* The evaluator can also be used directly as a linter. *)
  let check = Parser.parse_exn "let r:IP in r.sku == 'Standard' => r.allocation == 'Static'" in
  let bad =
    Zodiac_iac.Program.of_resources
      [
        Zodiac_iac.Resource.make "IP" "pip"
          [
            ("name", Zodiac_iac.Value.Str "demo");
            ("location", Zodiac_iac.Value.Str "eastus");
            ("sku", Zodiac_iac.Value.Str "Standard");
            ("allocation", Zodiac_iac.Value.Str "Dynamic");
          ];
      ]
  in
  let violations =
    Eval.violations ~defaults:(Arm.defaults provider) (Graph.build bad) (Eval.compile check)
  in
  Printf.printf "linting a standalone program: %d violation(s) of %s\n"
    (List.length violations) (Printer.to_string check)
