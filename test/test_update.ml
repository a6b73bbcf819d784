(* Tests for the live-update planner/simulator. *)

module Update = Zodiac_eval.Update
module Arm = Zodiac_cloud.Arm
module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program

let provider = Zodiac_azure.Azure.provider

let current = Zodiac.Registry.compile_exn Zodiac.Registry.quickstart_vm

let vpc_id = { Resource.rtype = "VPC"; rname = "net" }
let subnet_id = { Resource.rtype = "SUBNET"; rname = "app" }
let nic_id = { Resource.rtype = "NIC"; rname = "nic" }
let vm_id = { Resource.rtype = "VM"; rname = "vm" }

let has_action actions pred = List.exists pred actions

let test_noop_plan () =
  let actions = Update.plan ~provider ~current ~desired:current in
  List.iter
    (fun a ->
      match a with
      | Update.Noop _ -> ()
      | _ -> Alcotest.fail "identical programs must be all noop")
    actions

let test_in_place_update () =
  let desired =
    Program.update current nic_id (fun r ->
        Resource.set r "accelerated_networking" (Value.Bool true))
  in
  let actions = Update.plan ~provider ~current ~desired in
  Alcotest.(check bool) "in-place on nic" true
    (has_action actions (function
      | Update.Update_in_place (id, [ "accelerated_networking" ]) ->
          Resource.equal_id id nic_id
      | _ -> false));
  Alcotest.(check bool) "no replacement" false
    (has_action actions (function Update.Replace _ -> true | _ -> false))

let test_immutable_forces_replace () =
  let desired =
    Program.update current vm_id (fun r ->
        Resource.set r "sku" (Value.Str "Standard_D2s_v3"))
  in
  let actions = Update.plan ~provider ~current ~desired in
  Alcotest.(check bool) "vm replaced" true
    (has_action actions (function
      | Update.Replace (id, _) -> Resource.equal_id id vm_id
      | _ -> false))

let test_replace_cascades_to_dependents () =
  let desired =
    Program.update current vpc_id (fun r ->
        Resource.set r "address_space" (Value.List [ Value.Str "10.99.0.0/16" ]))
  in
  let actions = Update.plan ~provider ~current ~desired in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Resource.id_to_string id ^ " replaced")
        true
        (has_action actions (function
          | Update.Replace (id', _) -> Resource.equal_id id id'
          | _ -> false)))
    [ vpc_id; subnet_id; nic_id; vm_id ]

let test_leaf_replace_does_not_cascade_down () =
  (* replacing the VM does not touch what it references *)
  let desired =
    Program.update current vm_id (fun r ->
        Resource.set r "sku" (Value.Str "Standard_D2s_v3"))
  in
  let actions = Update.plan ~provider ~current ~desired in
  Alcotest.(check bool) "vpc untouched" true
    (has_action actions (function
      | Update.Noop id -> Resource.equal_id id vpc_id
      | _ -> false))

let test_create_and_destroy () =
  let extra = Resource.make "SA" "logs"
      [ ("name", Value.Str "logsacct"); ("location", Value.Str "westeurope");
        ("tier", Value.Str "Standard"); ("replica", Value.Str "LRS") ]
  in
  let desired = Program.add (Program.remove current vm_id) extra in
  let actions = Update.plan ~provider ~current ~desired in
  Alcotest.(check bool) "create sa" true
    (has_action actions (function
      | Update.Create id -> Resource.equal_id id (Resource.id extra)
      | _ -> false));
  Alcotest.(check bool) "destroy vm" true
    (has_action actions (function
      | Update.Destroy id -> Resource.equal_id id vm_id
      | _ -> false))

let test_apply_clean_update () =
  let desired =
    Program.update current nic_id (fun r ->
        Resource.set r "accelerated_networking" (Value.Bool true))
  in
  let result = Update.apply ~provider ~current ~desired () in
  Alcotest.(check int) "no disruption" 0 (Update.disruption result);
  Alcotest.(check bool) "succeeds" true (Arm.success result.Update.outcome)

let test_apply_failing_update () =
  (* VPC address space changed, subnet range left stale *)
  let desired =
    Program.update current vpc_id (fun r ->
        Resource.set r "address_space" (Value.List [ Value.Str "10.99.0.0/16" ]))
  in
  let result = Update.apply ~provider ~current ~desired () in
  Alcotest.(check bool) "disruption includes cascade" true
    (Update.disruption result >= 4);
  (match Arm.first_error result.Update.outcome with
  | Some f -> Alcotest.(check string) "fails on stale subnet" "SUBNET-IN-VPC" f.Arm.rule_id
  | None -> Alcotest.fail "expected the mid-update failure")

let test_immutable_attr_table () =
  Alcotest.(check bool) "vpc address space immutable" true
    (List.mem "address_space" (Update.immutable_attrs provider "VPC"));
  Alcotest.(check bool) "names immutable everywhere" true
    (List.mem "name" (Update.immutable_attrs provider "WEBAPP"))

let () =
  Alcotest.run "update"
    [
      ( "plan",
        [
          Alcotest.test_case "noop" `Quick test_noop_plan;
          Alcotest.test_case "in-place" `Quick test_in_place_update;
          Alcotest.test_case "immutable forces replace" `Quick test_immutable_forces_replace;
          Alcotest.test_case "cascade to dependents" `Quick test_replace_cascades_to_dependents;
          Alcotest.test_case "no downward cascade" `Quick test_leaf_replace_does_not_cascade_down;
          Alcotest.test_case "create/destroy" `Quick test_create_and_destroy;
          Alcotest.test_case "immutable table" `Quick test_immutable_attr_table;
        ] );
      ( "apply",
        [
          Alcotest.test_case "clean update" `Quick test_apply_clean_update;
          Alcotest.test_case "failing update" `Quick test_apply_failing_update;
        ] );
    ]
