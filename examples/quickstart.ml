(* Quickstart: parse a Terraform configuration, compile it to a
   resource graph, simulate its deployment, and check it against the
   semantic rule set.

     dune exec examples/quickstart.exe *)

module Arm = Zodiac_cloud.Arm
module Provider = Zodiac_provider.Provider
module Graph = Zodiac_iac.Graph
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Eval = Zodiac_spec.Eval

let () =
  (* 1. Compile HCL into Zodiac's program model. *)
  let program = Zodiac.Registry.compile_exn Zodiac.Registry.quickstart_vm in
  Printf.printf "compiled %d resources:\n" (Program.size program);
  List.iter
    (fun r ->
      Printf.printf "  %s\n" (Resource.id_to_string (Resource.id r)))
    (Program.resources program);

  (* 2. Inspect the resource graph. *)
  let graph = Graph.build program in
  Printf.printf "\nresource graph edges:\n";
  List.iter
    (fun (e : Graph.edge) ->
      Printf.printf "  %s.%s -> %s.%s\n"
        (Resource.id_to_string e.Graph.src)
        e.Graph.src_attr
        (Resource.id_to_string e.Graph.dst)
        e.Graph.dst_attr)
    (Graph.edges graph);

  (* 3. Simulate the deployment. *)
  let provider = Zodiac_azure.Azure.provider in
  let outcome = Arm.deploy ~provider program in
  Printf.printf "\ndeployment: %s\n"
    (if Arm.success outcome then "SUCCESS" else "FAILED");

  (* 4. Break the program — move the NIC to another region — and watch
     the semantic gap open: compilation still succeeds, deployment
     fails. *)
  let broken =
    Program.update program
      { Resource.rtype = "NIC"; rname = "nic" }
      (fun r -> Resource.set r "location" (Zodiac_iac.Value.Str "japaneast"))
  in
  let outcome = Arm.deploy ~provider broken in
  (match Arm.first_error outcome with
  | Some f ->
      Printf.printf
        "\nafter moving the NIC to japaneast:\n  deployment fails at %s (%s phase): %s\n"
        (Resource.id_to_string f.Arm.resource)
        (Provider.phase_to_string f.Arm.phase)
        f.Arm.message
  | None -> print_endline "unexpectedly deployed");

  (* 5. The corresponding semantic check catches it statically. *)
  let check =
    Zodiac_spec.Spec_parser.parse_exn
      "let r1:VM, r2:NIC in conn(r1.nic_ids -> r2.id) => r1.location == r2.location"
  in
  let violations =
    Eval.violations ~defaults:(Arm.defaults provider) (Graph.build broken) check
  in
  Printf.printf
    "\nsemantic check '%s'\n  flags %d violation(s) at compile time — no cloud required.\n"
    (Zodiac_spec.Spec_printer.to_string check)
    (List.length violations)
