(* The application-gateway documentation bug (§5.5, provider issue
   #27222), replayed end to end.

   The official usage example compiles cleanly yet violates two
   semantic checks; the naive fix for the first violation trips a
   third check; only the complete fix deploys.

     dune exec examples/appgw_case_study.exe *)

module Arm = Zodiac_cloud.Arm
module Provider = Zodiac_provider.Provider
module Program = Zodiac_iac.Program
module Resource = Zodiac_iac.Resource
module Value = Zodiac_iac.Value

let banner title = Printf.printf "\n=== %s ===\n" title

let attempt label program =
  banner label;
  let provider = Zodiac_azure.Azure.provider in
  let outcome = Arm.deploy ~provider program in
  match Arm.first_error outcome with
  | None ->
      Printf.printf "deployment SUCCEEDS (%d resources created)\n"
        (List.length outcome.Arm.deployed);
      true
  | Some f ->
      Printf.printf "deployment FAILS at %s\n  [%s, %s phase] %s\n"
        (Resource.id_to_string f.Arm.resource)
        f.Arm.rule_id
        (Provider.phase_to_string f.Arm.phase)
        f.Arm.message;
      Printf.printf "  resources created before the failure: %d; halted behind it: %d\n"
        (List.length outcome.Arm.deployed)
        (List.length outcome.Arm.halted);
      false

let () =
  let buggy = Zodiac.Registry.compile_exn Zodiac.Registry.appgw_assoc_buggy in
  Printf.printf
    "The example compiles without errors — Terraform's own validation sees nothing wrong.\n";
  ignore (attempt "official usage example, as documented" buggy);

  (* Naive fix: bump the IP sku to Standard but keep Dynamic allocation.
     This trades the APPGW-IP violation for an intra-resource one. *)
  let naive =
    Program.update buggy
      { Resource.rtype = "IP"; rname = "d" }
      (fun r -> Resource.set r "sku" (Value.Str "Standard"))
  in
  ignore (attempt "naive fix: sku = Standard (allocation still Dynamic)" naive);

  (* Complete fix for violation 1: Standard + Static. Violation 2 (the
     NIC sharing the gateway's subnet) now surfaces. *)
  let v1_fixed =
    Program.update naive
      { Resource.rtype = "IP"; rname = "d" }
      (fun r -> Resource.set r "allocation" (Value.Str "Static"))
  in
  ignore (attempt "violation 1 fixed: Standard + Static" v1_fixed);

  (* Full fix: also move the NIC to the backend subnet. *)
  let fixed = Zodiac.Registry.compile_exn Zodiac.Registry.appgw_assoc_fixed in
  if attempt "complete fix: NIC moved to the backend subnet" fixed then
    print_endline
      "\nBoth violations found by Zodiac were reported upstream and fixed in the provider docs."
