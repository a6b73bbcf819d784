type vm_sku = {
  vm_name : string;
  max_nics : int;
  max_data_disks : int;
  vcpus : int;
  premium_io : bool;
}

let vm_skus =
  [
    { vm_name = "Standard_B1ls"; max_nics = 2; max_data_disks = 2; vcpus = 1; premium_io = false };
    { vm_name = "Standard_B1s"; max_nics = 2; max_data_disks = 2; vcpus = 1; premium_io = false };
    { vm_name = "Standard_B2s"; max_nics = 3; max_data_disks = 4; vcpus = 2; premium_io = false };
    { vm_name = "Standard_B2ms"; max_nics = 3; max_data_disks = 4; vcpus = 2; premium_io = false };
    { vm_name = "Standard_B4ms"; max_nics = 4; max_data_disks = 8; vcpus = 4; premium_io = false };
    { vm_name = "Standard_D2s_v3"; max_nics = 2; max_data_disks = 4; vcpus = 2; premium_io = true };
    { vm_name = "Standard_D4s_v3"; max_nics = 2; max_data_disks = 8; vcpus = 4; premium_io = true };
    { vm_name = "Standard_D8s_v3"; max_nics = 4; max_data_disks = 16; vcpus = 8; premium_io = true };
    { vm_name = "Standard_D16s_v3"; max_nics = 8; max_data_disks = 32; vcpus = 16; premium_io = true };
    { vm_name = "Standard_D32s_v3"; max_nics = 8; max_data_disks = 32; vcpus = 32; premium_io = true };
    { vm_name = "Standard_F2s_v2"; max_nics = 2; max_data_disks = 4; vcpus = 2; premium_io = true };
    { vm_name = "Standard_F4s_v2"; max_nics = 2; max_data_disks = 8; vcpus = 4; premium_io = true };
    { vm_name = "Standard_F8s_v2"; max_nics = 4; max_data_disks = 16; vcpus = 8; premium_io = true };
    { vm_name = "Standard_F16s_v2"; max_nics = 4; max_data_disks = 32; vcpus = 16; premium_io = true };
    { vm_name = "Standard_F32s_v2"; max_nics = 8; max_data_disks = 32; vcpus = 32; premium_io = true };
    { vm_name = "Standard_E2s_v3"; max_nics = 2; max_data_disks = 4; vcpus = 2; premium_io = true };
    { vm_name = "Standard_E4s_v3"; max_nics = 2; max_data_disks = 8; vcpus = 4; premium_io = true };
    { vm_name = "Standard_E8s_v3"; max_nics = 4; max_data_disks = 16; vcpus = 8; premium_io = true };
    { vm_name = "Standard_E16s_v3"; max_nics = 8; max_data_disks = 32; vcpus = 16; premium_io = true };
    { vm_name = "Standard_L8s_v2"; max_nics = 4; max_data_disks = 16; vcpus = 8; premium_io = true };
    { vm_name = "Standard_M64s"; max_nics = 8; max_data_disks = 64; vcpus = 64; premium_io = true };
    { vm_name = "Standard_NC6s_v3"; max_nics = 4; max_data_disks = 12; vcpus = 6; premium_io = true };
    { vm_name = "Standard_A1_v2"; max_nics = 2; max_data_disks = 2; vcpus = 1; premium_io = false };
    { vm_name = "Standard_A2_v2"; max_nics = 2; max_data_disks = 4; vcpus = 2; premium_io = false };
    { vm_name = "Standard_A4_v2"; max_nics = 4; max_data_disks = 8; vcpus = 4; premium_io = false };
    { vm_name = "Standard_DS1_v2"; max_nics = 2; max_data_disks = 4; vcpus = 1; premium_io = true };
    { vm_name = "Standard_DS2_v2"; max_nics = 2; max_data_disks = 8; vcpus = 2; premium_io = true };
    { vm_name = "Standard_DS3_v2"; max_nics = 4; max_data_disks = 16; vcpus = 4; premium_io = true };
    { vm_name = "Standard_DS4_v2"; max_nics = 8; max_data_disks = 32; vcpus = 8; premium_io = true };
    { vm_name = "Standard_DS5_v2"; max_nics = 8; max_data_disks = 64; vcpus = 16; premium_io = true };
  ]

let find_vm name = List.find_opt (fun sku -> String.equal sku.vm_name name) vm_skus

let vm_sku_names = List.map (fun sku -> sku.vm_name) vm_skus

type gw_sku = {
  gw_name : string;
  max_tunnels : int;
  supports_active_active : bool;
  generation : int;
}

let gw_skus =
  [
    { gw_name = "Basic"; max_tunnels = 10; supports_active_active = false; generation = 1 };
    { gw_name = "VpnGw1"; max_tunnels = 30; supports_active_active = true; generation = 1 };
    { gw_name = "VpnGw2"; max_tunnels = 30; supports_active_active = true; generation = 1 };
    { gw_name = "VpnGw3"; max_tunnels = 30; supports_active_active = true; generation = 1 };
    { gw_name = "VpnGw4"; max_tunnels = 100; supports_active_active = true; generation = 2 };
    { gw_name = "VpnGw5"; max_tunnels = 100; supports_active_active = true; generation = 2 };
    { gw_name = "Standard"; max_tunnels = 10; supports_active_active = false; generation = 1 };
    { gw_name = "HighPerformance"; max_tunnels = 30; supports_active_active = false; generation = 1 };
    { gw_name = "ErGw1AZ"; max_tunnels = 4; supports_active_active = true; generation = 2 };
    { gw_name = "ErGw2AZ"; max_tunnels = 8; supports_active_active = true; generation = 2 };
  ]

let find_gw name = List.find_opt (fun sku -> String.equal sku.gw_name name) gw_skus

let gw_sku_names = List.map (fun sku -> sku.gw_name) gw_skus

let sa_replications = [ "LRS"; "ZRS"; "GRS"; "RAGRS"; "GZRS"; "RAGZRS" ]

let sa_premium_replications = [ "LRS"; "ZRS" ]

let appgw_sku_names =
  [ "Standard_Small"; "Standard_Medium"; "Standard_Large"; "Standard_v2"; "WAF_Medium"; "WAF_Large"; "WAF_v2" ]

let appgw_v2_skus = [ "Standard_v2"; "WAF_v2" ]

let lb_sku_names = [ "Basic"; "Standard"; "Gateway" ]

let ip_sku_names = [ "Basic"; "Standard" ]
