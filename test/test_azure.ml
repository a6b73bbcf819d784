(* Sanity tests for the Azure provider catalogue. *)

module Catalog = Zodiac_azure.Catalog
module Skus = Zodiac_azure.Skus
module Regions = Zodiac_azure.Regions
module Schema = Zodiac_iac.Schema

let test_catalog_size () =
  Alcotest.(check bool) "at least 52 resource types" true
    (List.length Catalog.schemas >= 52)

let test_catalog_unique_names () =
  let names = Catalog.type_names in
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_catalog_lookup () =
  Alcotest.(check bool) "SUBNET" true (Catalog.find "SUBNET" <> None);
  Alcotest.(check bool) "unknown" true (Catalog.find "NOPE" = None);
  match Catalog.find_exn "VM" with
  | schema -> Alcotest.(check string) "vm" "VM" schema.Schema.type_name

let test_terraform_mapping_bijective () =
  List.iter
    (fun canonical ->
      let tf = Catalog.to_terraform canonical in
      Alcotest.(check (option string))
        (Printf.sprintf "roundtrip %s" canonical)
        (Some canonical) (Catalog.of_terraform tf))
    Catalog.type_names

let test_every_type_mapped () =
  List.iter
    (fun canonical ->
      let tf = Catalog.to_terraform canonical in
      Alcotest.(check bool)
        (Printf.sprintf "%s has azurerm name" canonical)
        true
        (String.length tf > 8 && String.sub tf 0 8 = "azurerm_"))
    Catalog.type_names

let test_vm_is_widest () =
  let vm = Schema.attr_count (Catalog.find_exn "VM") in
  Alcotest.(check bool) "vm has 40+ attributes" true (vm >= 40);
  List.iter
    (fun schema ->
      Alcotest.(check bool)
        (schema.Schema.type_name ^ " narrower than VM")
        true
        (Schema.attr_count schema <= vm))
    Catalog.schemas

let test_attribute_count_spread () =
  (* Figure 7a needs types across the 10..80 attribute spectrum *)
  let counts = List.map Schema.attr_count Catalog.schemas in
  Alcotest.(check bool) "some small types" true (List.exists (fun c -> c < 10) counts);
  Alcotest.(check bool) "some large types" true (List.exists (fun c -> c > 40) counts)

let test_required_have_no_default () =
  List.iter
    (fun schema ->
      List.iter
        (fun (path, (a : Schema.attr)) ->
          if a.Schema.req = Schema.Required then
            Alcotest.(check bool)
              (Printf.sprintf "%s.%s required without default" schema.Schema.type_name path)
              true (a.Schema.default = None))
        (Schema.leaf_paths schema))
    Catalog.schemas

let test_refs_to_targets_exist () =
  List.iter
    (fun schema ->
      List.iter
        (fun (path, (a : Schema.attr)) ->
          List.iter
            (fun (target_type, target_attr) ->
              match Catalog.find target_type with
              | None ->
                  Alcotest.failf "%s.%s references unknown type %s"
                    schema.Schema.type_name path target_type
              | Some target ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s.%s -> %s.%s target attr exists"
                       schema.Schema.type_name path target_type target_attr)
                    true
                    (Schema.find_attr target (Zodiac_iac.Path.of_string target_attr) <> None))
            a.Schema.refs_to)
        (Schema.leaf_paths schema))
    Catalog.schemas

let test_slow_create_types () =
  List.iter
    (fun ty ->
      Alcotest.(check bool) (ty ^ " slow") true (Catalog.find_exn ty).Schema.slow_create)
    [ "GW"; "FW"; "APPGW"; "AKS" ]

let test_vm_skus () =
  Alcotest.(check bool) "30+ skus" true (List.length Skus.vm_skus >= 30);
  List.iter
    (fun (sku : Skus.vm_sku) ->
      Alcotest.(check bool) (sku.Skus.vm_name ^ " nics>=1") true (sku.Skus.max_nics >= 1);
      Alcotest.(check bool) (sku.Skus.vm_name ^ " disks>=1") true
        (sku.Skus.max_data_disks >= 1))
    Skus.vm_skus;
  Alcotest.(check bool) "lookup" true (Skus.find_vm "Standard_B1s" <> None);
  Alcotest.(check bool) "missing" true (Skus.find_vm "Standard_Z99" = None)

let test_vm_sku_enum_matches_schema () =
  match Schema.enum_values (Catalog.find_exn "VM") "sku" with
  | Some values ->
      Alcotest.(check (list string)) "schema enum = sku table" Skus.vm_sku_names values
  | None -> Alcotest.fail "VM.sku should be an enum"

let test_gw_skus () =
  Alcotest.(check bool) "basic no active-active" true
    (match Skus.find_gw "Basic" with
    | Some sku -> not sku.Skus.supports_active_active
    | None -> false);
  Alcotest.(check bool) "vpngw1 supports" true
    (match Skus.find_gw "VpnGw1" with
    | Some sku -> sku.Skus.supports_active_active
    | None -> false)

let test_sa_replications () =
  Alcotest.(check bool) "GZRS not premium" true
    (not (List.mem "GZRS" Skus.sa_premium_replications));
  Alcotest.(check bool) "LRS premium ok" true (List.mem "LRS" Skus.sa_premium_replications)

let test_regions () =
  Alcotest.(check bool) "30+ regions" true (List.length Regions.all >= 30);
  Alcotest.(check bool) "eastus" true (Regions.is_region "eastus");
  Alcotest.(check bool) "not a region" false (Regions.is_region "mars-north");
  Alcotest.(check (option string)) "pairing" (Some "westus") (Regions.paired "eastus");
  (* pairs point at real regions *)
  List.iter
    (fun r ->
      match Regions.paired r with
      | Some p -> Alcotest.(check bool) (r ^ " pair exists") true (Regions.is_region p)
      | None -> Alcotest.fail "every region is paired")
    Regions.all

let test_reserved_subnets () =
  Alcotest.(check (option string)) "gateway subnet" (Some "GW")
    (List.assoc_opt "GatewaySubnet" Catalog.reserved_subnet_names);
  List.iter
    (fun (_, ty) ->
      Alcotest.(check bool) (ty ^ " exists") true (Catalog.find ty <> None))
    Catalog.reserved_subnet_names

let () =
  Alcotest.run "azure"
    [
      ( "catalog",
        [
          Alcotest.test_case "size" `Quick test_catalog_size;
          Alcotest.test_case "unique names" `Quick test_catalog_unique_names;
          Alcotest.test_case "lookup" `Quick test_catalog_lookup;
          Alcotest.test_case "terraform mapping" `Quick test_terraform_mapping_bijective;
          Alcotest.test_case "every type mapped" `Quick test_every_type_mapped;
          Alcotest.test_case "vm widest" `Quick test_vm_is_widest;
          Alcotest.test_case "attr count spread" `Quick test_attribute_count_spread;
          Alcotest.test_case "required no default" `Quick test_required_have_no_default;
          Alcotest.test_case "reference targets exist" `Quick test_refs_to_targets_exist;
          Alcotest.test_case "slow types" `Quick test_slow_create_types;
          Alcotest.test_case "reserved subnets" `Quick test_reserved_subnets;
        ] );
      ( "skus",
        [
          Alcotest.test_case "vm table" `Quick test_vm_skus;
          Alcotest.test_case "vm enum consistency" `Quick test_vm_sku_enum_matches_schema;
          Alcotest.test_case "gw table" `Quick test_gw_skus;
          Alcotest.test_case "sa replications" `Quick test_sa_replications;
        ] );
      ("regions", [ Alcotest.test_case "table" `Quick test_regions ]);
    ]
