(* Tests for the simulated Azure cloud: ground-truth rules, the
   deployment engine and its five phases, blast radius accounting. *)

module Provider = Zodiac_provider.Provider
module Arm = Zodiac_cloud.Arm
module Defaults = Zodiac_cloud.Defaults
module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program

let provider = Zodiac_azure.Azure.provider

let v_str s = Value.Str s

(* ---------------- rule set ------------------------------------------ *)

let test_rules_count () =
  Alcotest.(check bool) "200+ ground truth rules" true (List.length (provider.Zodiac_provider.Provider.ground_truth ()) >= 200)

let test_rules_unique_ids () =
  let ids = List.map (fun r -> r.Provider.rule_id) (provider.Zodiac_provider.Provider.ground_truth ()) in
  Alcotest.(check int) "unique" (List.length ids) (List.length (List.sort_uniq compare ids))

let test_rules_phases_all_present () =
  let phases = List.map (fun r -> r.Provider.phase) (provider.Zodiac_provider.Provider.ground_truth ()) in
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        (Provider.phase_to_string phase ^ " present")
        true (List.mem phase phases))
    [ Provider.Plugin; Provider.Pre_sync; Provider.Create; Provider.Polling; Provider.Post_sync ]

let test_rules_find () =
  let gt = provider.Zodiac_provider.Provider.ground_truth () in
  Alcotest.(check bool) "by id" true (Provider.find gt "VM-SPOT-EVICT" <> None);
  Alcotest.(check bool) "missing" true (Provider.find gt "NOPE" = None)

(* ---------------- building blocks ------------------------------------ *)

let vpc = Resource.make "VPC" "v"
    [ ("name", v_str "net"); ("location", v_str "eastus");
      ("address_space", Value.List [ v_str "10.0.0.0/16" ]) ]

let subnet ?(name = "default") ?(cidr = "10.0.1.0/24") rname =
  Resource.make "SUBNET" rname
    [ ("name", v_str name); ("vpc_name", Value.reference "VPC" "v" "name");
      ("cidr", v_str cidr) ]

let nic ?(loc = "eastus") rname =
  Resource.make "NIC" rname
    [ ("name", v_str ("nic-" ^ rname)); ("location", v_str loc);
      ("ip_config", Value.Block [
         ("name", v_str "cfg");
         ("subnet_id", Value.reference "SUBNET" "s" "id");
         ("private_ip_allocation", v_str "Dynamic") ]) ]

let vm rname nic_names =
  Resource.make "VM" rname
    [ ("name", v_str ("vm-" ^ rname)); ("location", v_str "eastus");
      ("sku", v_str "Standard_B2s");
      ("nic_ids", Value.List (List.map (fun n -> Value.reference "NIC" n "id") nic_names));
      ("os_disk", Value.Block [
         ("name", v_str ("osd-" ^ rname)); ("caching", v_str "ReadWrite");
         ("storage_type", v_str "Standard_LRS") ]);
      ("admin_username", v_str "azureuser");
      ("admin_password", v_str "secret-1");
      ( "source_image_ref",
        Value.Block
          [ ("publisher", v_str "Canonical"); ("offer", v_str "ubuntu");
            ("sku", v_str "22_04"); ("version", v_str "latest") ] ) ]

let base = [ vpc; subnet "s"; nic "n"; vm "m" [ "n" ] ]

let deploy resources = Arm.deploy ~provider (Program.of_resources resources)

let check_fails ?phase ?rule resources =
  let outcome = deploy resources in
  match Arm.first_error outcome with
  | None -> Alcotest.fail "expected deployment failure"
  | Some f ->
      Option.iter
        (fun expected ->
          Alcotest.(check string) "phase" (Provider.phase_to_string expected)
            (Provider.phase_to_string f.Arm.phase))
        phase;
      Option.iter (fun expected -> Alcotest.(check string) "rule" expected f.Arm.rule_id) rule;
      f

(* ---------------- defaults ------------------------------------------- *)

let test_defaults_lookup () =
  Alcotest.(check bool) "gw active_active default false" true
    (Defaults.lookup provider ~rtype:"GW" ~attr:"active_active" = Some (Value.Bool false));
  Alcotest.(check bool) "no default for name" true
    (Defaults.lookup provider ~rtype:"GW" ~attr:"name" = None)

let test_defaults_effective () =
  let ip = Resource.make "IP" "p" [ ("name", v_str "x") ] in
  let eff = Defaults.effective provider ip in
  Alcotest.(check bool) "sku default applied" true
    (Resource.get eff "sku" = v_str "Basic")

(* ---------------- deployment engine ---------------------------------- *)

let test_deploy_success () =
  let outcome = deploy base in
  Alcotest.(check bool) "succeeds" true (Arm.success outcome);
  Alcotest.(check int) "all deployed" 4 (List.length outcome.Arm.deployed)

let test_deploy_order () =
  let outcome = deploy base in
  let names = List.map Resource.id_to_string outcome.Arm.deployed in
  Alcotest.(check (list string)) "dependency order"
    [ "VPC.v"; "SUBNET.s"; "NIC.n"; "VM.m" ] names

let test_missing_required_fails_plugin () =
  let bad_nic = Resource.remove_attr (nic "n") "location" in
  ignore (check_fails ~phase:Provider.Plugin ~rule:"ENGINE-SCHEMA" [ vpc; subnet "s"; bad_nic ])

let test_invalid_enum_fails () =
  let bad = Resource.set (vm "m" [ "n" ]) "sku" (v_str "Standard_Z9") in
  ignore (check_fails ~phase:Provider.Plugin [ vpc; subnet "s"; nic "n"; bad ])

let test_invalid_region_fails () =
  let bad = Resource.set (nic "n") "location" (v_str "atlantis") in
  ignore (check_fails ~phase:Provider.Plugin [ vpc; subnet "s"; bad ])

let test_name_conflict_pre_sync () =
  (* two subnets with the same name in the same VPC *)
  let s1 = subnet ~name:"dup" ~cidr:"10.0.1.0/24" "s" in
  let s2 = subnet ~name:"dup" ~cidr:"10.0.2.0/24" "s2" in
  ignore (check_fails ~phase:Provider.Pre_sync ~rule:"ENGINE-EXISTS" [ vpc; s1; s2 ])

let test_name_scope_allows_cross_vpc () =
  (* same subnet name in different VPCs is fine *)
  let vpc2 =
    Resource.make "VPC" "v2"
      [ ("name", v_str "net2"); ("location", v_str "eastus");
        ("address_space", Value.List [ v_str "10.1.0.0/16" ]) ]
  in
  let s2 =
    Resource.make "SUBNET" "s2"
      [ ("name", v_str "default"); ("vpc_name", Value.reference "VPC" "v2" "name");
        ("cidr", v_str "10.1.1.0/24") ]
  in
  Alcotest.(check bool) "deploys" true (Arm.success (deploy [ vpc; subnet "s"; vpc2; s2 ]))

let test_dangling_ref_fails_create () =
  let orphan_nic =
    Resource.make "NIC" "n"
      [ ("name", v_str "x"); ("location", v_str "eastus");
        ("ip_config", Value.Block [
           ("name", v_str "c"); ("subnet_id", Value.reference "SUBNET" "ghost" "id");
           ("private_ip_allocation", v_str "Dynamic") ]) ]
  in
  ignore (check_fails ~phase:Provider.Create ~rule:"ENGINE-NOTFOUND" [ vpc; orphan_nic ])

let test_semantic_rule_create_phase () =
  let wrong_region = [ vpc; subnet "s"; nic ~loc:"westus" "n"; vm "m" [ "n" ] ] in
  ignore (check_fails ~phase:Provider.Create ~rule:"LOC-NIC-VPC" wrong_region)

let test_polling_phase_rule () =
  (* firewall subnet with delegation -> polling failure *)
  let fw_subnet =
    Resource.make "SUBNET" "s"
      [ ("name", v_str "AzureFirewallSubnet");
        ("vpc_name", Value.reference "VPC" "v" "name");
        ("cidr", v_str "10.0.9.0/24");
        ("delegation", Value.Block [ ("name", v_str "d"); ("service", v_str "Microsoft.Web/serverFarms") ]) ]
  in
  let ip =
    Resource.make "IP" "ip"
      [ ("name", v_str "fwip"); ("location", v_str "eastus");
        ("allocation", v_str "Static"); ("sku", v_str "Standard") ]
  in
  let fw =
    Resource.make "FW" "f"
      [ ("name", v_str "fw"); ("location", v_str "eastus");
        ("sku_name", v_str "AZFW_VNet"); ("sku_tier", v_str "Standard");
        ("ip_config", Value.Block [
           ("name", v_str "c");
           ("subnet_id", Value.reference "SUBNET" "s" "id");
           ("public_ip_id", Value.reference "IP" "ip" "id") ]) ]
  in
  ignore (check_fails ~phase:Provider.Polling ~rule:"FW-SUBNET-DELEG" [ vpc; fw_subnet; ip; fw ])

let test_post_sync_phase_rule () =
  (* subnet attached to two route tables: deploys but is inconsistent *)
  let rt name = Resource.make "RT" name [ ("name", v_str name); ("location", v_str "eastus") ] in
  let assoc name rt_name =
    Resource.make "RTASSOC" name
      [ ("subnet_id", Value.reference "SUBNET" "s" "id");
        ("rt_id", Value.reference "RT" rt_name "id") ]
  in
  let outcome = deploy [ vpc; subnet "s"; rt "r1"; rt "r2"; assoc "a1" "r1"; assoc "a2" "r2" ] in
  Alcotest.(check bool) "no halting failure" true (outcome.Arm.failure = None);
  Alcotest.(check bool) "post-sync issues found" true (outcome.Arm.post_sync_issues <> []);
  Alcotest.(check bool) "overall not success" false (Arm.success outcome)

let test_unattended_types_deploy () =
  let diag =
    Resource.make "MONITOR_DIAG" "d"
      [ ("name", v_str "diag"); ("target_resource_id", Value.reference "VPC" "v" "id") ]
  in
  Alcotest.(check bool) "unknown type ok" true (Arm.success (deploy [ vpc; diag ]))

let test_newly_introduced_violation_attribution () =
  (* a NIC intruding on a gateway subnet is blamed even though the
     violated check binds only GW and SUBNET *)
  let gw_subnet = subnet ~name:"GatewaySubnet" ~cidr:"10.0.8.0/24" "gs" in
  let ip =
    Resource.make "IP" "ip"
      [ ("name", v_str "gwip"); ("location", v_str "eastus");
        ("allocation", v_str "Static"); ("sku", v_str "Standard") ]
  in
  let gw =
    Resource.make "GW" "g"
      [ ("name", v_str "gw"); ("location", v_str "eastus");
        ("type", v_str "Vpn"); ("sku", v_str "VpnGw1");
        ("ip_config", Value.Block [
           ("name", v_str "c");
           ("public_ip_id", Value.reference "IP" "ip" "id");
           ("subnet_id", Value.reference "SUBNET" "gs" "id") ]) ]
  in
  let intruder =
    Resource.make "NIC" "bad"
      [ ("name", v_str "bad"); ("location", v_str "eastus");
        ("ip_config", Value.Block [
           ("name", v_str "c"); ("subnet_id", Value.reference "SUBNET" "gs" "id");
           ("private_ip_allocation", v_str "Dynamic") ]) ]
  in
  let f = check_fails [ vpc; gw_subnet; ip; gw; intruder ] in
  Alcotest.(check bool) "gateway-subnet rule fired" true
    (List.mem f.Arm.rule_id [ "GW-SUBNET-EXCL"; "GWSUBNET-ONLY-GW" ])

let test_sku_limit_rule () =
  let nics = [ "a"; "b"; "c" ] in
  let small = Resource.set (vm "m" nics) "sku" (v_str "Standard_B1s") in
  let resources = vpc :: subnet "s" :: List.map (fun n -> nic n) nics @ [ small ] in
  ignore (check_fails ~rule:"VM-NICS-Standard_B1s" resources)

let test_blast_radius () =
  (* subnet CIDR out of range: VPC deploys, subnet fails, NIC+VM halted *)
  let bad = [ vpc; subnet ~cidr:"192.168.0.0/24" "s"; nic "n"; vm "m" [ "n" ] ] in
  let outcome = deploy bad in
  let radius = Arm.blast_radius (Program.of_resources bad) outcome in
  Alcotest.(check bool) "halting radius includes NIC and VM" true
    (List.mem "NIC" radius.Arm.halted_types && List.mem "VM" radius.Arm.halted_types);
  Alcotest.(check bool) "rollback includes the subnet" true
    (List.mem "SUBNET" radius.Arm.rollback_types)

let test_blast_radius_empty_on_success () =
  let radius = Arm.blast_radius (Program.of_resources base) (deploy base) in
  Alcotest.(check int) "no halted" 0 (List.length radius.Arm.halted_types);
  Alcotest.(check int) "no rollback" 0 (List.length radius.Arm.rollback_types)

let test_deterministic_outcome () =
  let o1 = deploy base and o2 = deploy base in
  Alcotest.(check bool) "same outcome" true
    (o1.Arm.deployed = o2.Arm.deployed && o1.Arm.failure = o2.Arm.failure)

(* ---------------- quotas & regional skus (§6 extensions) ------------- *)

module Quota = Zodiac_cloud.Quota

let test_quota_off_by_default () =
  (* ten IPs deploy fine without a quota *)
  let ips =
    List.init 12 (fun i ->
        Resource.make "IP" (Printf.sprintf "ip%d" i)
          [ ("name", v_str (Printf.sprintf "pip%d" i)); ("location", v_str "eastus");
            ("allocation", v_str "Static"); ("sku", v_str "Standard") ])
  in
  Alcotest.(check bool) "unlimited" true (Arm.success (deploy ips))

let test_quota_per_type () =
  let ips =
    List.init 3 (fun i ->
        Resource.make "IP" (Printf.sprintf "ip%d" i)
          [ ("name", v_str (Printf.sprintf "pip%d" i)); ("location", v_str "eastus");
            ("allocation", v_str "Static"); ("sku", v_str "Standard") ])
  in
  let outcome = Arm.deploy ~provider ~quota:Quota.strict (Program.of_resources ips) in
  match Arm.first_error outcome with
  | Some f ->
      Alcotest.(check string) "quota error" "ENGINE-QUOTA" f.Arm.rule_id;
      Alcotest.(check int) "one created before the limit" 1
        (List.length outcome.Arm.deployed)
  | None -> Alcotest.fail "expected a quota failure"

let test_quota_total () =
  let sas =
    List.init 10 (fun i ->
        Resource.make "SA" (Printf.sprintf "sa%d" i)
          [ ("name", v_str (Printf.sprintf "acct%d" i)); ("location", v_str "eastus");
            ("tier", v_str "Standard"); ("replica", v_str "LRS") ])
  in
  let outcome = Arm.deploy ~provider ~quota:Quota.strict (Program.of_resources sas) in
  (match Arm.first_error outcome with
  | Some f -> Alcotest.(check string) "total quota" "ENGINE-QUOTA" f.Arm.rule_id
  | None -> Alcotest.fail "expected total-quota failure");
  Alcotest.(check int) "eight created" 8 (List.length outcome.Arm.deployed)

let test_regional_sku () =
  let gpu_vm region =
    [
      Resource.make "VPC" "v"
        [ ("name", v_str "net"); ("location", v_str region);
          ("address_space", Value.List [ v_str "10.0.0.0/16" ]) ];
      Resource.make "SUBNET" "s"
        [ ("name", v_str "default"); ("vpc_name", Value.reference "VPC" "v" "name");
          ("cidr", v_str "10.0.1.0/24") ];
      Resource.make "NIC" "n"
        [ ("name", v_str "nic"); ("location", v_str region);
          ("ip_config", Value.Block [
             ("name", v_str "c"); ("subnet_id", Value.reference "SUBNET" "s" "id");
             ("private_ip_allocation", v_str "Dynamic") ]) ];
      Resource.make "VM" "m"
        [ ("name", v_str "gpu"); ("location", v_str region);
          ("sku", v_str "Standard_NC6s_v3");
          ("nic_ids", Value.List [ Value.reference "NIC" "n" "id" ]);
          ("os_disk", Value.Block [
             ("name", v_str "osd"); ("caching", v_str "ReadWrite");
             ("storage_type", v_str "Premium_LRS") ]);
          ("admin_username", v_str "azureuser"); ("admin_password", v_str "pw-1");
          ( "source_image_ref",
            Value.Block
              [ ("publisher", v_str "Canonical"); ("offer", v_str "u");
                ("sku", v_str "22"); ("version", v_str "latest") ] ) ];
    ]
  in
  let quota = { Quota.unlimited with Quota.regional_skus = true } in
  let ok = Arm.deploy ~provider ~quota (Program.of_resources (gpu_vm "eastus")) in
  Alcotest.(check bool) "gpu in eastus ok" true (Arm.success ok);
  let bad = Arm.deploy ~provider ~quota (Program.of_resources (gpu_vm "ukwest")) in
  (match Arm.first_error bad with
  | Some f -> Alcotest.(check string) "regional sku" "ENGINE-REGION-SKU" f.Arm.rule_id
  | None -> Alcotest.fail "expected regional failure");
  (* same program deploys when enforcement is off (the paper's setting) *)
  Alcotest.(check bool) "off by default" true
    (Arm.success (deploy (gpu_vm "ukwest")))

let () =
  Alcotest.run "cloud"
    [
      ( "rules",
        [
          Alcotest.test_case "count" `Quick test_rules_count;
          Alcotest.test_case "unique ids" `Quick test_rules_unique_ids;
          Alcotest.test_case "all phases present" `Quick test_rules_phases_all_present;
          Alcotest.test_case "find" `Quick test_rules_find;
        ] );
      ( "defaults",
        [
          Alcotest.test_case "lookup" `Quick test_defaults_lookup;
          Alcotest.test_case "effective" `Quick test_defaults_effective;
        ] );
      ( "deploy",
        [
          Alcotest.test_case "success" `Quick test_deploy_success;
          Alcotest.test_case "dependency order" `Quick test_deploy_order;
          Alcotest.test_case "missing required -> plugin" `Quick test_missing_required_fails_plugin;
          Alcotest.test_case "invalid enum -> plugin" `Quick test_invalid_enum_fails;
          Alcotest.test_case "invalid region -> plugin" `Quick test_invalid_region_fails;
          Alcotest.test_case "name conflict -> pre-sync" `Quick test_name_conflict_pre_sync;
          Alcotest.test_case "name scoping" `Quick test_name_scope_allows_cross_vpc;
          Alcotest.test_case "dangling ref -> create" `Quick test_dangling_ref_fails_create;
          Alcotest.test_case "semantic rule -> create" `Quick test_semantic_rule_create_phase;
          Alcotest.test_case "polling phase" `Quick test_polling_phase_rule;
          Alcotest.test_case "post-sync phase" `Quick test_post_sync_phase_rule;
          Alcotest.test_case "unattended types" `Quick test_unattended_types_deploy;
          Alcotest.test_case "violation attribution" `Quick test_newly_introduced_violation_attribution;
          Alcotest.test_case "sku limits" `Quick test_sku_limit_rule;
          Alcotest.test_case "deterministic" `Quick test_deterministic_outcome;
        ] );
      ( "blast radius",
        [
          Alcotest.test_case "failure radius" `Quick test_blast_radius;
          Alcotest.test_case "success radius empty" `Quick test_blast_radius_empty_on_success;
        ] );
      ( "quota extensions",
        [
          Alcotest.test_case "off by default" `Quick test_quota_off_by_default;
          Alcotest.test_case "per-type quota" `Quick test_quota_per_type;
          Alcotest.test_case "total quota" `Quick test_quota_total;
          Alcotest.test_case "regional skus" `Quick test_regional_sku;
        ] );
    ]
