(* Live updates to a running deployment (§1).

   Changing a deployed VPC's address space cannot be applied in place:
   Azure forces the VPC — and transitively every resource referencing
   it — to be destroyed and recreated. This example plans three updates
   against a running web tier and shows the disruption each causes,
   including an update that fails mid-flight.

     dune exec examples/live_update.exe *)

module Update = Zodiac_eval.Update
module Arm = Zodiac_cloud.Arm
module Program = Zodiac_iac.Program
module Resource = Zodiac_iac.Resource
module Value = Zodiac_iac.Value

let action_text = function
  | Update.Create id -> Printf.sprintf "+ create  %s" (Resource.id_to_string id)
  | Update.Update_in_place (id, changes) ->
      Printf.sprintf "~ update  %s (%s)" (Resource.id_to_string id)
        (String.concat ", " changes)
  | Update.Replace (id, _) ->
      Printf.sprintf "! replace %s (destroy and recreate)" (Resource.id_to_string id)
  | Update.Destroy id -> Printf.sprintf "- destroy %s" (Resource.id_to_string id)
  | Update.Noop _ -> ""

let show_plan label current desired =
  Printf.printf "\n=== %s ===\n" label;
  let provider = Zodiac_azure.Azure.provider in
  let result = Update.apply ~provider ~current ~desired () in
  List.iter
    (fun action ->
      match action_text action with "" -> () | line -> print_endline ("  " ^ line))
    result.Update.actions;
  Printf.printf "  resources incurring downtime: %d\n" (Update.disruption result);
  (match Arm.first_error result.Update.outcome with
  | None -> print_endline "  update applies cleanly"
  | Some f ->
      Printf.printf "  UPDATE FAILS mid-flight: [%s] %s\n" f.Arm.rule_id f.Arm.message;
      print_endline
        "  the recreated resources are already gone - the deployment is now degraded");
  result

let () =
  (* a running deployment *)
  let current = Zodiac.Registry.compile_exn Zodiac.Registry.quickstart_vm in
  assert (Arm.success (Arm.deploy ~provider:Zodiac_azure.Azure.provider current));
  Printf.printf "running deployment: %d resources\n" (Program.size current);

  (* update 1: a tag-level change applies in place *)
  let desired =
    Program.update current
      { Resource.rtype = "NIC"; rname = "nic" }
      (fun r -> Resource.set r "accelerated_networking" (Value.Bool true))
  in
  ignore (show_plan "enable accelerated networking on the NIC" current desired);

  (* update 2: growing the VPC address space forces a full recreate
     cascade (the paper's CIDR-fix scenario), but applies cleanly when
     the subnet moves along *)
  let vpc_moved =
    Program.update current
      { Resource.rtype = "VPC"; rname = "net" }
      (fun r ->
        Resource.set r "address_space" (Value.List [ Value.Str "10.99.0.0/16" ]))
  in
  let desired_fixed =
    Program.update vpc_moved
      { Resource.rtype = "SUBNET"; rname = "app" }
      (fun r -> Resource.set r "cidr" (Value.Str "10.99.1.0/24"))
  in
  ignore
    (show_plan "change the VPC address space (subnet updated too)" current
       desired_fixed);

  (* update 3: the same change with the subnet range forgotten - the
     update fails after the VPC was already destroyed *)
  ignore
    (show_plan "the same change with a stale subnet range" current vpc_moved)
