let appgw_assoc_buggy =
  {|
# Official usage example: associate a network interface with an
# application gateway's backend address pool.
resource "azurerm_virtual_network" "a" {
  name          = "example-network"
  location      = "eastus"
  address_space = ["10.0.0.0/16"]
}

resource "azurerm_subnet" "b" {
  name     = "frontend"
  vpc_name = azurerm_virtual_network.a.name
  cidr     = "10.0.1.0/24"
}

resource "azurerm_subnet" "c" {
  name     = "backend"
  vpc_name = azurerm_virtual_network.a.name
  cidr     = "10.0.2.0/24"
}

# Violation 1: the IP of an application gateway must use the Standard
# sku (and hence static allocation).
resource "azurerm_public_ip" "d" {
  name       = "example-pip"
  location   = "eastus"
  sku        = "Basic"
  allocation = "Dynamic"
}

resource "azurerm_application_gateway" "f" {
  name     = "example-appgw"
  location = "eastus"
  sku {
    name     = "Standard_v2"
    tier     = "Standard_v2"
    capacity = 2
  }
  gateway_ip_config {
    name      = "gw-ip-config"
    subnet_id = azurerm_subnet.b.id
  }
  frontend_ip_config {
    name         = "frontend-ip"
    public_ip_id = azurerm_public_ip.d.id
  }
  frontend_port {
    name = "http"
    port = 80
  }
  backend_address_pool {
    name = "pool-1"
  }
  backend_http_settings {
    name     = "http-settings"
    port     = 80
    protocol = "Http"
  }
  http_listener {
    name                    = "listener-1"
    frontend_ip_config_name = "frontend-ip"
    frontend_port_name      = "http"
    protocol                = "Http"
  }
  request_routing_rule {
    name                       = "rule-1"
    rule_type                  = "Basic"
    http_listener_name         = "listener-1"
    backend_address_pool_name  = "pool-1"
    backend_http_settings_name = "http-settings"
    priority                   = 9
  }
}

# Violation 2: the subnet of an application gateway is exclusive, but
# this NIC shares subnet "b" with the gateway.
resource "azurerm_network_interface" "e" {
  name     = "example-nic"
  location = "eastus"
  ip_config {
    name                  = "internal"
    subnet_id             = azurerm_subnet.b.id
    private_ip_allocation = "Dynamic"
  }
}
|}

let appgw_assoc_fixed =
  (* sku -> Standard/Static; NIC moved to the backend subnet "c";
     patched textually so the two sources stay in sync *)
  let b = appgw_assoc_buggy in
  let patch s (from, into) =
    let flen = String.length from in
    let buf = Buffer.create (String.length s) in
    let rec go i =
      if i > String.length s - flen then Buffer.add_string buf (String.sub s i (String.length s - i))
      else if String.sub s i flen = from then begin
        Buffer.add_string buf into;
        go (i + flen)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
    in
    go 0;
    Buffer.contents buf
  in
  List.fold_left patch b
    [
      ({|sku        = "Basic"|}, {|sku        = "Standard"|});
      ({|allocation = "Dynamic"
}|}, {|allocation = "Static"
}|});
      ({|subnet_id             = azurerm_subnet.b.id|},
       {|subnet_id             = azurerm_subnet.c.id|});
    ]

let mssql_db_buggy =
  {|
# Official usage example: a SQL server with a Basic database.
resource "azurerm_mssql_server" "s" {
  name                   = "example-sqlserver"
  location               = "westeurope"
  version                = "12.0"
  administrator_login    = "sqladmin"
  administrator_password = "Sup3rSecret!"
}

# Violation: Basic sku databases support at most 2 GB, but the example
# requests 250 GB.
resource "azurerm_mssql_database" "d" {
  name        = "example-db"
  server_id   = azurerm_mssql_server.s.id
  sku         = "Basic"
  max_size_gb = 250
}
|}

let aws_db_buggy =
  {|resource "aws_db_instance" "db" {
  name                    = "appdb"
  location                = "us-east-1"
  engine                  = "postgres"
  instance_class          = "db.t3.micro"
  allocated_storage       = 5
  backup_retention_period = 40
}
|}

let mssql_db_fixed =
  let patch s (from, into) =
    let flen = String.length from in
    let buf = Buffer.create (String.length s) in
    let rec go i =
      if i > String.length s - flen then
        Buffer.add_string buf (String.sub s i (String.length s - i))
      else if String.sub s i flen = from then begin
        Buffer.add_string buf into;
        go (i + flen)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
    in
    go 0;
    Buffer.contents buf
  in
  patch mssql_db_buggy ({|max_size_gb = 250|}, {|max_size_gb = 2|})

let quickstart_vm =
  {|
resource "azurerm_virtual_network" "net" {
  name          = "quickstart-net"
  location      = "westeurope"
  address_space = ["10.7.0.0/16"]
}

resource "azurerm_subnet" "app" {
  name     = "app"
  vpc_name = azurerm_virtual_network.net.name
  cidr     = "10.7.1.0/24"
}

resource "azurerm_network_interface" "nic" {
  name     = "quickstart-nic"
  location = "westeurope"
  ip_config {
    name                  = "internal"
    subnet_id             = azurerm_subnet.app.id
    private_ip_allocation = "Dynamic"
  }
}

resource "azurerm_linux_virtual_machine" "vm" {
  name           = "quickstart-vm"
  location       = "westeurope"
  sku            = "Standard_B2s"
  nic_ids        = [azurerm_network_interface.nic.id]
  admin_username = "azureuser"
  admin_password = "CorrectHorseBattery9!"
  os_disk {
    name         = "quickstart-osdisk"
    caching      = "ReadWrite"
    storage_type = "Standard_LRS"
  }
  source_image_ref {
    publisher = "Canonical"
    offer     = "0001-com-ubuntu-server-jammy"
    sku       = "22_04-lts"
    version   = "latest"
  }
}
|}

let compile ?(provider = Zodiac_providers.Providers.default) src =
  match
    Zodiac_hcl.Compile.compile_string
      ~type_map:provider.Zodiac_provider.Provider.of_terraform src
  with
  | Error e -> Error e
  | Ok (prog, []) -> Ok prog
  | Ok (_, diags) ->
      Error
        (String.concat "; "
           (List.map
              (fun (d : Zodiac_hcl.Compile.diagnostic) ->
                Printf.sprintf "%s: %s" d.Zodiac_hcl.Compile.message
                  d.Zodiac_hcl.Compile.context)
              diags))

let compile_exn src =
  match compile src with Ok p -> p | Error e -> invalid_arg ("Registry: " ^ e)

let compile_file ?provider path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic -> (
      match
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | exception Sys_error e -> Error e
      | src -> (
          match compile ?provider src with
          | Ok p -> Ok p
          | Error e -> Error (Printf.sprintf "%s: %s" path e)))
