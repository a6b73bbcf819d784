(** The Azure hidden ground-truth rule set, expressed over the shared
    provider rule type. The exact list order is load-bearing: the
    deployment simulator reports the first violating rule in phase
    order, so reordering changes artifacts. *)

module Provider = Zodiac_provider.Provider

type phase = Provider.phase = Plugin | Pre_sync | Create | Polling | Post_sync

let rule = Provider.rule

(* ---------------- hand-authored rules ------------------------------ *)

let authored () =
  [
    (* Location consistency across connected resources. *)
    rule "LOC-NIC-VPC" Create "NIC and its virtual network must be in the same region"
      "let r1:NIC, r2:VPC in path(r1 -> r2) => r1.location == r2.location";
    rule "LOC-VM-NIC" Create "VM and its NIC must be in the same region"
      "let r1:VM, r2:NIC in conn(r1.nic_ids -> r2.id) => r1.location == r2.location";
    rule "LOC-VM-VPC" Create "VM and its virtual network must be in the same region"
      "let r1:VM, r2:VPC in path(r1 -> r2) => r1.location == r2.location";
    rule "LOC-GW-IP" Create "Gateway and its public IP must be in the same region"
      "let r1:GW, r2:IP in conn(r1.ip_config.public_ip_id -> r2.id) => r1.location == r2.location";
    rule "LOC-GW-VPC" Create "Gateway and its virtual network must be in the same region"
      "let r1:GW, r2:VPC in path(r1 -> r2) => r1.location == r2.location";
    rule "LOC-FW-IP" Create "Firewall and its public IP must be in the same region"
      "let r1:FW, r2:IP in conn(r1.ip_config.public_ip_id -> r2.id) => r1.location == r2.location";
    rule "LOC-FW-VPC" Create "Firewall and its virtual network must be in the same region"
      "let r1:FW, r2:VPC in path(r1 -> r2) => r1.location == r2.location";
    rule "LOC-LB-IP" Create "Load balancer and its public IP must be in the same region"
      "let r1:LB, r2:IP in conn(r1.frontend_ip_config.public_ip_id -> r2.id) => r1.location == r2.location";
    rule "LOC-APPGW-IP" Create
      "Application gateway and its public IP must be in the same region"
      "let r1:APPGW, r2:IP in conn(r1.frontend_ip_config.public_ip_id -> r2.id) => r1.location == r2.location";
    rule "LOC-APPGW-VPC" Create
      "Application gateway and its virtual network must be in the same region"
      "let r1:APPGW, r2:VPC in path(r1 -> r2) => r1.location == r2.location";
    rule "LOC-BASTION-IP" Create "Bastion and its public IP must be in the same region"
      "let r1:BASTION, r2:IP in conn(r1.ip_config.public_ip_id -> r2.id) => r1.location == r2.location";
    rule "LOC-BASTION-VPC" Create
      "Bastion and its virtual network must be in the same region"
      "let r1:BASTION, r2:VPC in path(r1 -> r2) => r1.location == r2.location";
    rule "LOC-ATTACH" Create "VM and attached disk must be in the same region"
      "let r1:VM, r2:DISK, r3:ATTACH in coconn(r3.vm_id -> r1.id, r3.disk_id -> r2.id) => r1.location == r2.location";
    rule "LOC-TUNNEL-GW" Polling "VPN connection must be in its gateway's region"
      "let r1:TUNNEL, r2:GW in conn(r1.gw_id -> r2.id) => r1.location == r2.location";
    rule "LOC-WEBAPP-PLAN" Create "Web app and its plan must be in the same region"
      "let r1:WEBAPP, r2:PLAN in conn(r1.plan_id -> r2.id) => r1.location == r2.location";
    rule "LOC-FUNC-PLAN" Create "Function app and its plan must be in the same region"
      "let r1:FUNC, r2:PLAN in conn(r1.plan_id -> r2.id) => r1.location == r2.location";
    rule "LOC-AKS-VPC" Create "AKS cluster must be in its virtual network's region"
      "let r1:AKS, r2:VPC in path(r1 -> r2) => r1.location == r2.location";
    rule "LOC-REDIS-VPC" Create "Redis cache must be in its virtual network's region"
      "let r1:REDIS, r2:VPC in path(r1 -> r2) => r1.location == r2.location";
    rule "LOC-MYSQL-VPC" Create "MySQL server must be in its virtual network's region"
      "let r1:MYSQL, r2:VPC in path(r1 -> r2) => r1.location == r2.location";
    rule "LOC-PRIVEP-VPC" Create
      "Private endpoint must be in its virtual network's region"
      "let r1:PRIVEP, r2:VPC in path(r1 -> r2) => r1.location == r2.location";
    rule "LOC-VMSS-VPC" Create "VM scale set must be in its virtual network's region"
      "let r1:VMSS, r2:VPC in path(r1 -> r2) => r1.location == r2.location";
    rule "LOC-AVSET-VM" Create "VM and its availability set must be in the same region"
      "let r1:VM, r2:AVSET in conn(r1.availability_set_id -> r2.id) => r1.location == r2.location";
    rule "LOC-SNAPSHOT-DISK" Create "Snapshot must be in its source disk's region"
      "let r1:SNAPSHOT, r2:DISK in conn(r1.source_disk_id -> r2.id) => r1.location == r2.location";
    rule "LOC-NAT-VPC" Create "NAT gateway must be in its virtual network's region"
      "let a:NATASSOC, n:NAT, s:SUBNET, v:VPC in coconn(a.nat_id -> n.id, a.subnet_id -> s.id) && conn(s.vpc_name -> v.name) => n.location == v.location";
    (* Reserved subnets and subnet exclusivity. *)
    rule "GW-SUBNET-NAME" Create "VPN gateway requires a subnet named GatewaySubnet"
      "let r1:GW, r2:SUBNET in conn(r1.ip_config.subnet_id -> r2.id) => r2.name == 'GatewaySubnet'";
    rule "GW-SUBNET-EXCL" Create "No other resource can share the gateway subnet"
      "let r1:GW, r2:SUBNET in conn(r1.ip_config.subnet_id -> r2.id) => outdegree(r2, !GW) == 0";
    rule "GW-PER-SUBNET" Create "A subnet can host at most one VPN gateway"
      "let r1:GW, r2:SUBNET in conn(r1.ip_config.subnet_id -> r2.id) => outdegree(r2, GW) == 1";
    rule "GWSUBNET-ONLY-GW" Create "GatewaySubnet may only host VPN gateways"
      "let r:SUBNET in r.name == 'GatewaySubnet' => outdegree(r, !GW) == 0";
    rule "FW-SUBNET-NAME" Create "Firewall requires a subnet named AzureFirewallSubnet"
      "let r1:FW, r2:SUBNET in conn(r1.ip_config.subnet_id -> r2.id) => r2.name == 'AzureFirewallSubnet'";
    rule "FW-SUBNET-EXCL" Polling "No other resource can share the firewall subnet"
      "let r1:FW, r2:SUBNET in conn(r1.ip_config.subnet_id -> r2.id) => outdegree(r2, !FW) == 0";
    rule "FW-SUBNET-DELEG" Polling "Firewall subnet cannot use delegation"
      "let r1:FW, r2:SUBNET in conn(r1.ip_config.subnet_id -> r2.id) => r2.delegation == null";
    rule "BASTION-SUBNET-NAME" Create
      "Bastion requires a subnet named AzureBastionSubnet"
      "let r1:BASTION, r2:SUBNET in conn(r1.ip_config.subnet_id -> r2.id) => r2.name == 'AzureBastionSubnet'";
    rule "BASTION-SUBNET-EXCL" Create "No other resource can share the bastion subnet"
      "let r1:BASTION, r2:SUBNET in conn(r1.ip_config.subnet_id -> r2.id) => outdegree(r2, !BASTION) == 0";
    rule "APPGW-SUBNET-EXCL" Create
      "The subnet of an application gateway is exclusive"
      "let r1:APPGW, r2:SUBNET in conn(r1.gateway_ip_config.subnet_id -> r2.id) => outdegree(r2, !APPGW) == 0";
    (* CIDR discipline. *)
    rule "SUBNET-IN-VPC" Create
      "Subnet range must be contained in the virtual network address space"
      "let r1:SUBNET, r2:VPC in conn(r1.vpc_name -> r2.name) => contain(r2.address_space, r1.cidr)";
    rule "SUBNET-OVERLAP" Create
      "Subnets of the same virtual network cannot have overlapping ranges"
      "let r1:SUBNET, r2:SUBNET, r3:VPC in coconn(r1.vpc_name -> r3.name, r2.vpc_name -> r3.name) => !overlap(r1.cidr, r2.cidr)";
    rule "PEERING-OVERLAP" Create
      "Peered virtual networks cannot have overlapping address spaces"
      "let p:PEERING, v1:VPC, v2:VPC in coconn(p.vpc_name -> v1.name, p.remote_vpc_id -> v2.id) => !overlap(v1.address_space, v2.address_space)";
    rule "TUNNEL-VPC-OVERLAP" Polling
      "Two tunneled virtual networks must have exclusive IP ranges"
      "let t:TUNNEL, v1:VPC, v2:VPC in copath(t -> v1, t -> v2) => !overlap(v1.address_space, v2.address_space)";
    rule "LNG-VPC-OVERLAP" Create
      "On-premises address space cannot overlap the tunneled virtual network"
      "let t:TUNNEL, l:LNG, v:VPC in conn(t.lng_id -> l.id) && path(t -> v) => !overlap(l.address_space, v.address_space)";
    rule "AKS-SERVICE-CIDR" Create
      "AKS service CIDR cannot overlap the node subnet range"
      "let a:AKS, s:SUBNET in conn(a.default_node_pool.subnet_id -> s.id) => !overlap(a.network_profile.service_cidr, s.cidr)";
    (* Public IP rules. *)
    rule "IP-STANDARD-STATIC" Plugin "Standard sku public IP must use static allocation"
      "let r:IP in r.sku == 'Standard' => r.allocation == 'Static'";
    rule "IP-ZONES-STANDARD" Create "Zonal public IPs require the Standard sku"
      "let r:IP in r.zones != null => r.sku == 'Standard'";
    rule "IP-GLOBAL-STANDARD" Create "Global tier public IPs require the Standard sku"
      "let r:IP in r.sku_tier == 'Global' => r.sku == 'Standard'";
    rule "APPGW-IP-STANDARD" Create
      "IP associated with an application gateway must use the Standard sku"
      "let r1:APPGW, r2:IP in conn(r1.frontend_ip_config.public_ip_id -> r2.id) => r2.sku == 'Standard'";
    rule "NAT-IP-STANDARD" Create "IP associated with NAT must use the Standard sku"
      "let a:NATIPASSOC, r:IP in conn(a.ip_id -> r.id) => r.sku == 'Standard'";
    rule "LB-STANDARD-IP" Create "Standard load balancer requires Standard sku IPs"
      "let l:LB, r:IP in conn(l.frontend_ip_config.public_ip_id -> r.id) && l.sku == 'Standard' => r.sku == 'Standard'";
    rule "GW-IP-STANDARD" Create "VPN gateway requires a Standard sku public IP"
      "let g:GW, r:IP in conn(g.ip_config.public_ip_id -> r.id) => r.sku == 'Standard'";
    rule "FW-IP-STANDARD" Create "Firewall requires a Standard sku public IP"
      "let f:FW, r:IP in conn(f.ip_config.public_ip_id -> r.id) => r.sku == 'Standard'";
    rule "BASTION-IP-STANDARD" Create "Bastion requires a Standard sku public IP"
      "let b:BASTION, r:IP in conn(b.ip_config.public_ip_id -> r.id) => r.sku == 'Standard'";
    (* Virtual machines, disks, attachments. *)
    rule "VM-SPOT-EVICT" Plugin "Spot VMs must configure an eviction policy"
      "let r:VM in r.priority == 'Spot' => r.evict_policy != null";
    rule "VM-EVICT-SPOT" Plugin "Eviction policy is only valid for Spot VMs"
      "let r:VM in r.evict_policy != null => r.priority == 'Spot'";
    rule "VM-MAXBID-SPOT" Plugin "max_bid_price is only valid for Spot VMs"
      "let r:VM in r.max_bid_price != null => r.priority == 'Spot'";
    rule "VM-IMAGE-REQUIRED" Create
      "VM without a source image must use the Attach create option"
      "let r:VM in r.source_image_ref == null && r.source_image_id == null => r.create == 'Attach'";
    rule "VM-ZONE-AVSET" Plugin "Zonal VMs cannot join an availability set"
      "let r:VM in r.zone != null => r.availability_set_id == null";
    rule "VM-PASSWORD" Create
      "Password authentication requires an admin password"
      "let r:VM in r.password_authentication_enabled == true => r.admin_password != null";
    rule "NIC-ONE-VM" Create "A NIC can only be attached to one VM"
      "let r1:VM, r2:NIC in conn(r1.nic_ids -> r2.id) => outdegree(r2, VM) == 1";
    rule "VM-OSDISK-DISK-NAME" Pre_sync
      "VM os_disk and attached data disk must have different names"
      "let r1:VM, r2:DISK, r3:ATTACH in coconn(r3.vm_id -> r1.id, r3.disk_id -> r2.id) => r1.os_disk.name != r2.name";
    rule "ATTACH-LUN-DISTINCT" Create
      "Disk attachments on the same VM must use distinct LUNs"
      "let a1:ATTACH, a2:ATTACH, v:VM in coconn(a1.vm_id -> v.id, a2.vm_id -> v.id) => a1.lun != a2.lun";
    rule "ATTACH-ONE-VM" Create "A managed disk can be attached to at most one VM"
      "let a:ATTACH, d:DISK in conn(a.disk_id -> d.id) => outdegree(d, ATTACH) == 1";
    rule "ATTACH-ULTRA-CACHING" Create "UltraSSD disks only support caching None"
      "let a:ATTACH, d:DISK in conn(a.disk_id -> d.id) && d.storage_type == 'UltraSSD_LRS' => a.caching == 'None'";
    rule "DISK-ULTRA-ZONE" Create "UltraSSD disks must be zonal"
      "let d:DISK in d.storage_type == 'UltraSSD_LRS' => d.zone != null";
    rule "DISK-COPY-SOURCE" Plugin "Copy disks require a source resource"
      "let d:DISK in d.create_option == 'Copy' => d.source_id != null";
    rule "DISK-SOURCE-COPY" Plugin "A disk source is only valid with the Copy option"
      "let d:DISK in d.source_id != null => d.create_option == 'Copy'";
    rule "DISK-EMPTY-SIZE" Plugin "Empty disks must declare a size"
      "let d:DISK in d.create_option == 'Empty' => d.size_gb != null";
    rule "DISK-FROMIMAGE-IMAGE" Plugin "FromImage disks require an image reference"
      "let d:DISK in d.create_option == 'FromImage' => d.image_id != null";
    (* Virtual network gateways and tunnels. *)
    rule "GW-POLICY-BASIC" Create "Policy-based VPN requires the Basic gateway sku"
      "let g:GW in g.vpn_type == 'PolicyBased' => g.sku == 'Basic'";
    rule "GW-BASIC-BGP" Create "Basic sku gateways do not support BGP"
      "let g:GW in g.sku == 'Basic' => g.enable_bgp == false";
    rule "GW-GEN2-SKU" Create "Generation2 is not available for the Basic sku"
      "let g:GW in g.generation == 'Generation2' => g.sku != 'Basic'";
    rule "GW-ER-SKU-1" Create "ErGw skus require an ExpressRoute type gateway"
      "let g:GW in g.sku == 'ErGw1AZ' => g.type == 'ExpressRoute'";
    rule "GW-ER-SKU-2" Create "ErGw skus require an ExpressRoute type gateway"
      "let g:GW in g.sku == 'ErGw2AZ' => g.type == 'ExpressRoute'";
    rule "TUNNEL-V2V-PEER" Plugin "Vnet2Vnet connections require a peer gateway"
      "let t:TUNNEL in t.type == 'Vnet2Vnet' => t.peer_gw_id != null";
    rule "TUNNEL-IPSEC-LNG" Plugin "IPsec connections require a local network gateway"
      "let t:TUNNEL in t.type == 'IPsec' => t.lng_id != null";
    rule "TUNNEL-IPSEC-KEY" Create "IPsec connections require a shared key"
      "let t:TUNNEL in t.type == 'IPsec' => t.shared_key != null";
    rule "TUNNEL-V2V-NO-HA" Polling
      "Vnet2Vnet tunnels cannot terminate on active-active gateways"
      "let t:TUNNEL, g:GW in conn(t.gw_id -> g.id) && t.type == 'Vnet2Vnet' => g.active_active == false";
    (* Security groups. *)
    rule "SG-PRIORITY-DISTINCT" Create
      "Same-direction security rules must have distinct priorities"
      "let r:SG in r.rule[i].dir == r.rule[j].dir => r.rule[i].priority != r.rule[j].priority";
    rule "SG-NAME-DISTINCT" Create "Security rule names must be unique"
      "let r:SG in r.rule[i].name != null && r.rule[j].name != null => r.rule[i].name != r.rule[j].name";
    rule "SG-PRIORITY-MIN" Plugin "Security rule priority must be at least 100"
      "let r:SG in r.rule[i].name != null => r.rule[i].priority >= 100";
    rule "SG-PRIORITY-MAX" Plugin "Security rule priority must be at most 4096"
      "let r:SG in r.rule[i].name != null => r.rule[i].priority <= 4096";
    (* Route tables and associations. *)
    rule "ROUTE-APPLIANCE-IP" Plugin
      "VirtualAppliance routes require a next hop IP address"
      "let r:ROUTE in r.next_hop_type == 'VirtualAppliance' => r.next_hop_ip != null";
    rule "ROUTE-IP-APPLIANCE" Plugin
      "A next hop IP is only valid for VirtualAppliance routes"
      "let r:ROUTE in r.next_hop_ip != null => r.next_hop_type == 'VirtualAppliance'";
    rule "ROUTE-PREFIX-DISTINCT" Create
      "Routes of one table must have distinct address prefixes"
      "let r1:ROUTE, r2:ROUTE, t:RT in coconn(r1.rt_name -> t.name, r2.rt_name -> t.name) => r1.address_prefix != r2.address_prefix";
    rule "SUBNET-ONE-RT" Post_sync "A subnet can attach to at most one route table"
      "let a:RTASSOC, s:SUBNET in conn(a.subnet_id -> s.id) => outdegree(s, RTASSOC) == 1";
    rule "SUBNET-ONE-SG" Post_sync "A subnet can attach to at most one security group"
      "let a:SGASSOC, s:SUBNET in conn(a.subnet_id -> s.id) => outdegree(s, SGASSOC) == 1";
    rule "SUBNET-ONE-NAT" Post_sync "A subnet can attach to at most one NAT gateway"
      "let a:NATASSOC, s:SUBNET in conn(a.subnet_id -> s.id) => outdegree(s, NATASSOC) == 1";
    (* Peering. *)
    rule "PEERING-GW-TRANSIT" Create
      "use_remote_gateways conflicts with allow_gateway_transit"
      "let p:PEERING in p.use_remote_gateways == true => p.allow_gateway_transit == false";
    (* Container registry. *)
    rule "ACR-GEO-PREMIUM" Create "Geo-replication requires the Premium sku"
      "let r:ACR in r.georeplications != null => r.sku == 'Premium'";
    rule "ACR-GEO-DIFF-REGION" Create
      "Geo-replication regions must differ from the home region"
      "let r:ACR in r.georeplications[i].location != null => r.georeplications[i].location != r.location";
    (* Redis. *)
    rule "REDIS-P-PREMIUM" Plugin "Family P caches require the Premium sku"
      "let r:REDIS in r.family == 'P' => r.sku == 'Premium'";
    rule "REDIS-PREMIUM-P" Plugin "Premium caches require family P"
      "let r:REDIS in r.sku == 'Premium' => r.family == 'P'";
    rule "REDIS-SUBNET-PREMIUM" Create "VNet-injected caches require the Premium sku"
      "let r:REDIS in r.subnet_id != null => r.sku == 'Premium'";
    rule "REDIS-SHARD-PREMIUM" Create "Clustering requires the Premium sku"
      "let r:REDIS in r.shard_count != null => r.sku == 'Premium'";
    rule "REDIS-C-CAPACITY" Create "Family C capacity must be at most 6"
      "let r:REDIS in r.family == 'C' => r.capacity <= 6";
    rule "REDIS-P-CAPACITY-MIN" Create "Family P capacity must be at least 1"
      "let r:REDIS in r.family == 'P' => r.capacity >= 1";
    rule "REDIS-P-CAPACITY-MAX" Create "Family P capacity must be at most 5"
      "let r:REDIS in r.family == 'P' => r.capacity <= 5";
    (* Event hubs. *)
    rule "EH-BASIC-RETENTION" Create
      "Basic namespaces support at most 1 day message retention"
      "let e:EVENTHUB, n:EVENTHUB_NS in conn(e.namespace_name -> n.name) && n.sku == 'Basic' => e.message_retention <= 1";
    rule "EH-PARTITIONS-MIN" Plugin "Event hubs need at least one partition"
      "let e:EVENTHUB in e.name != null => e.partition_count >= 1";
    rule "EH-PARTITIONS-MAX" Plugin "Event hubs support at most 32 partitions"
      "let e:EVENTHUB in e.name != null => e.partition_count <= 32";
    rule "EH-CAPTURE-STANDARD" Create "Capture is unavailable on Basic namespaces"
      "let e:EVENTHUB, n:EVENTHUB_NS in conn(e.namespace_name -> n.name) && n.sku == 'Basic' => e.capture_description == null";
    rule "EHNS-INFLATE-STANDARD" Create "Auto-inflate requires the Standard sku"
      "let n:EVENTHUB_NS in n.auto_inflate_enabled == true => n.sku == 'Standard'";
    rule "EHNS-MAXTPU-INFLATE" Plugin
      "maximum_throughput_units requires auto-inflate"
      "let n:EVENTHUB_NS in n.maximum_throughput_units != null => n.auto_inflate_enabled == true";
    (* Service bus. *)
    rule "SB-SESSION-BASIC" Create "Sessions are unavailable on Basic namespaces"
      "let q:SBQUEUE, n:SERVICEBUS_NS in conn(q.namespace_id -> n.id) && n.sku == 'Basic' => q.requires_session == false";
    rule "SBNS-CAPACITY-PREMIUM" Create "Capacity is only valid for Premium namespaces"
      "let n:SERVICEBUS_NS in n.capacity != null => n.sku == 'Premium'";
    rule "SBNS-PARTITION-PREMIUM" Create
      "Premium messaging partitions require the Premium sku"
      "let n:SERVICEBUS_NS in n.premium_messaging_partitions_enabled == true => n.sku == 'Premium'";
    (* AKS. *)
    rule "AKS-AZURE-NO-PODCIDR" Create
      "The azure network plugin does not accept a pod CIDR"
      "let a:AKS in a.network_profile.network_plugin == 'azure' => a.network_profile.pod_cidr == null";
    rule "AKS-CILIUM-AZURE" Create "The cilium policy requires the azure plugin"
      "let a:AKS in a.network_profile.network_policy == 'cilium' => a.network_profile.network_plugin == 'azure'";
    rule "AKS-AUTOSCALE-MIN" Plugin "Autoscaling requires min_count"
      "let a:AKS in a.default_node_pool.auto_scaling_enabled == true => a.default_node_pool.min_count != null";
    rule "AKS-MIN-AUTOSCALE" Plugin "min_count requires autoscaling"
      "let a:AKS in a.default_node_pool.min_count != null => a.default_node_pool.auto_scaling_enabled == true";
    (* Key vault. *)
    rule "KV-RETENTION-MIN" Create "Soft delete retention must be at least 7 days"
      "let k:KV in k.name != null => k.soft_delete_retention_days >= 7";
    rule "KV-RETENTION-MAX" Create "Soft delete retention must be at most 90 days"
      "let k:KV in k.name != null => k.soft_delete_retention_days <= 90";
    (* Cosmos DB. *)
    rule "COSMOS-BOUNDED-INTERVAL" Create
      "BoundedStaleness requires a staleness interval"
      "let c:COSMOS in c.consistency_policy.level == 'BoundedStaleness' => c.consistency_policy.max_interval_in_seconds != null";
    rule "COSMOS-INTERVAL-BOUNDED" Create
      "A staleness interval requires BoundedStaleness"
      "let c:COSMOS in c.consistency_policy.max_interval_in_seconds != null => c.consistency_policy.level == 'BoundedStaleness'";
    rule "COSMOS-PRIORITY-DISTINCT" Create
      "Geo locations must have distinct failover priorities"
      "let c:COSMOS in c.geo_location[i].location != null && c.geo_location[j].location != null => c.geo_location[i].failover_priority != c.geo_location[j].failover_priority";
    rule "COSMOS-FAILOVER-MULTI" Create
      "Automatic failover requires more than one geo location"
      "let c:COSMOS in c.automatic_failover_enabled == true => !length(c.geo_location, 1)";
    (* App service. *)
    rule "WEBAPP-F1-ALWAYSON" Create "Free tier plans do not support always_on"
      "let w:WEBAPP, p:PLAN in conn(w.plan_id -> p.id) && p.sku == 'F1' => w.site_config.always_on != true";
    rule "FUNC-Y1-ALWAYSON" Create "Consumption plans do not support always_on"
      "let f:FUNC, p:PLAN in conn(f.plan_id -> p.id) && p.sku == 'Y1' => f.site_config.always_on != true";
    rule "WEBAPP-VNET-SKU" Create "VNet integration is unavailable on Free plans"
      "let w:WEBAPP, p:PLAN in conn(w.plan_id -> p.id) && p.sku == 'F1' => w.virtual_network_subnet_id == null";
    (* Application gateway behaviour beyond sku/tier consistency. *)
    rule "APPGW-V2-PRIORITY-STD" Create
      "Standard_v2 routing rules must specify a priority"
      "let a:APPGW in a.sku.name == 'Standard_v2' && a.request_routing_rule[i].name != null => a.request_routing_rule[i].priority != null";
    rule "APPGW-V2-PRIORITY-WAF" Create
      "WAF_v2 routing rules must specify a priority"
      "let a:APPGW in a.sku.name == 'WAF_v2' && a.request_routing_rule[i].name != null => a.request_routing_rule[i].priority != null";
    rule "APPGW-WAF-CONFIG-SKU" Create
      "WAF configuration requires a WAF sku"
      "let a:APPGW in a.waf_configuration != null => a.sku.tier != 'Standard' && a.sku.tier != 'Standard_v2'";
    rule "APPGW-CAPACITY-V1" Plugin "v1 gateways support at most 32 instances"
      "let a:APPGW in a.sku.tier == 'Standard' && a.sku.capacity != null => a.sku.capacity <= 32";
    rule "APPGW-CAPACITY-V2" Plugin "v2 gateways support at most 125 instances"
      "let a:APPGW in a.sku.tier == 'Standard_v2' && a.sku.capacity != null => a.sku.capacity <= 125";
    (* MySQL. *)
    rule "MYSQL-DELEGATION" Create
      "MySQL flexible server subnets must be delegated to flexibleServers"
      "let m:MYSQL, s:SUBNET in conn(m.delegated_subnet_id -> s.id) => s.delegation.service == 'Microsoft.DBforMySQL/flexibleServers'";
    (* Private endpoints. *)
    rule "PRIVEP-SUBNET-POLICY" Create
      "Private endpoints require network policies disabled on the subnet"
      "let p:PRIVEP, s:SUBNET in conn(p.subnet_id -> s.id) => s.private_endpoint_network_policies == 'Disabled'";
    (* Load balancer. *)
    rule "LB-ZONES-STANDARD" Create "Zonal frontends require the Standard sku"
      "let l:LB in l.frontend_ip_config.zones != null => l.sku == 'Standard'";
    (* Storage misc. *)
    rule "SA-BLOCKBLOB-PREMIUM" Create "BlockBlobStorage accounts must be Premium"
      "let r:SA in r.kind == 'BlockBlobStorage' => r.tier == 'Premium'";
    rule "SA-FILESTORAGE-PREMIUM" Create "FileStorage accounts must be Premium"
      "let r:SA in r.kind == 'FileStorage' => r.tier == 'Premium'";
    rule "SHARE-NFS-PREMIUM" Create "NFS file shares require a Premium FileStorage account"
      "let s:SHARE, a:SA in conn(s.sa_name -> a.name) && s.protocol == 'NFS' => a.tier == 'Premium'";
    rule "CONTAINER-KIND" Create "FileStorage accounts cannot hold blob containers"
      "let c:CONTAINER, a:SA in conn(c.sa_name -> a.name) => a.kind != 'FileStorage'";
    (* SQL. *)
    rule "SQLDB-ZONE-SKU" Create "Zone-redundant databases need a non-Basic sku"
      "let d:SQLDB in d.zone_redundant == true => d.sku != 'Basic'";
    rule "SQLDB-BASIC-SIZE" Create "Basic databases support at most 2 GB"
      "let d:SQLDB in d.sku == 'Basic' && d.max_size_gb != null => d.max_size_gb <= 2";
    (* DNS. *)
    rule "DNSREC-CNAME-SINGLE" Create "CNAME record sets hold exactly one record"
      "let r:DNSREC in r.type == 'CNAME' && r.records != null => length(r.records, 1)";
    rule "DNSREC-TARGET-XOR" Plugin
      "A record set uses either records or a target resource"
      "let r:DNSREC in r.target_resource_id != null => r.records == null";
    (* Log analytics. *)
    rule "LOGWS-FREE-RETENTION" Create "Free tier retention is capped at 7 days"
      "let w:LOGWS in w.sku == 'Free' => w.retention_in_days <= 7";
    rule "LOGWS-QUOTA-PAID" Create "Daily quota is unavailable on the Free tier"
      "let w:LOGWS in w.daily_quota_gb != null => w.sku != 'Free'";
    rule "LOGWS-RETENTION-MAX" Create "Log retention is capped at 730 days"
      "let w:LOGWS in w.retention_in_days != null => w.retention_in_days <= 730";
    (* Documented value ranges across services (plugin-validated). *)
    rule "IP-IDLE-MIN" Plugin "Idle timeout must be at least 4 minutes"
      "let r:IP in r.idle_timeout_in_minutes != null => r.idle_timeout_in_minutes >= 4";
    rule "IP-IDLE-MAX" Create "Idle timeout must be at most 30 minutes"
      "let r:IP in r.idle_timeout_in_minutes != null => r.idle_timeout_in_minutes <= 30";
    rule "NAT-IDLE-MIN" Create "NAT idle timeout must be at least 4 minutes"
      "let r:NAT in r.idle_timeout_in_minutes != null => r.idle_timeout_in_minutes >= 4";
    rule "NAT-IDLE-MAX" Create "NAT idle timeout must be at most 120 minutes"
      "let r:NAT in r.idle_timeout_in_minutes != null => r.idle_timeout_in_minutes <= 120";
    rule "AVSET-FD-MIN" Create "Fault domain count must be at least 1"
      "let r:AVSET in r.fault_domain_count != null => r.fault_domain_count >= 1";
    rule "AVSET-FD-MAX" Create "Fault domain count must be at most 3"
      "let r:AVSET in r.fault_domain_count != null => r.fault_domain_count <= 3";
    rule "AVSET-UD-MIN" Create "Update domain count must be at least 1"
      "let r:AVSET in r.update_domain_count != null => r.update_domain_count >= 1";
    rule "AVSET-UD-MAX" Create "Update domain count must be at most 20"
      "let r:AVSET in r.update_domain_count != null => r.update_domain_count <= 20";
    rule "VMSS-INSTANCES-MAX" Create "Scale sets support at most 1000 instances"
      "let r:VMSS in r.instances != null => r.instances <= 1000";
    rule "VMSS-INSTANCES-MIN" Plugin "Instance count cannot be negative"
      "let r:VMSS in r.instances != null => r.instances >= 0";
    rule "AKS-NODES-MIN" Plugin "The default node pool needs at least 1 node"
      "let a:AKS in a.default_node_pool.node_count != null => a.default_node_pool.node_count >= 1";
    rule "AKS-NODES-MAX" Create "Node pools support at most 1000 nodes"
      "let a:AKS in a.default_node_pool.node_count != null => a.default_node_pool.node_count <= 1000";
    rule "AKS-MAXPODS-MIN" Create "max_pods must be at least 10"
      "let a:AKS in a.default_node_pool.max_pods != null => a.default_node_pool.max_pods >= 10";
    rule "AKS-MAXPODS-MAX" Create "max_pods must be at most 250"
      "let a:AKS in a.default_node_pool.max_pods != null => a.default_node_pool.max_pods <= 250";
    rule "MYSQL-BACKUP-MIN" Create "Backup retention must be at least 1 day"
      "let m:MYSQL in m.backup_retention_days != null => m.backup_retention_days >= 1";
    rule "MYSQL-BACKUP-MAX" Create "Backup retention must be at most 35 days"
      "let m:MYSQL in m.backup_retention_days != null => m.backup_retention_days <= 35";
    rule "APPINS-RETENTION-MIN" Create "Telemetry retention must be at least 30 days"
      "let r:APPINS in r.retention_in_days != null => r.retention_in_days >= 30";
    rule "APPINS-RETENTION-MAX" Create "Telemetry retention must be at most 730 days"
      "let r:APPINS in r.retention_in_days != null => r.retention_in_days <= 730";
    rule "SHARE-QUOTA-MIN" Create "File shares need at least 1 GiB"
      "let s:SHARE in s.quota != null => s.quota >= 1";
    rule "SHARE-QUOTA-MAX" Create "File shares are capped at 100 TiB"
      "let s:SHARE in s.quota != null => s.quota <= 102400";
    rule "SHARE-NFS-QUOTA" Create "Premium NFS shares start at 100 GiB"
      "let s:SHARE in s.protocol == 'NFS' => s.quota >= 100";
    rule "DNSREC-TTL-MIN" Plugin "Record TTL must be at least 1 second"
      "let r:DNSREC in r.ttl != null => r.ttl >= 1";
    rule "DNSREC-TTL-MAX" Create "Record TTL must be at most 2147483646"
      "let r:DNSREC in r.ttl != null => r.ttl <= 2147483646";
    rule "SBQUEUE-SIZE-MIN" Create "Queue size must be at least 1024 MB"
      "let q:SBQUEUE in q.max_size_in_megabytes != null => q.max_size_in_megabytes >= 1024";
    rule "SBQUEUE-SIZE-MAX" Create "Queue size must be at most 5120 MB"
      "let q:SBQUEUE in q.max_size_in_megabytes != null => q.max_size_in_megabytes <= 5120";
    rule "EHNS-CAPACITY-MIN" Create "Throughput units start at 1"
      "let n:EVENTHUB_NS in n.capacity != null => n.capacity >= 1";
    rule "EHNS-CAPACITY-MAX" Create "Throughput units are capped at 40"
      "let n:EVENTHUB_NS in n.capacity != null => n.capacity <= 40";
    rule "EXPRESS-BW-MIN" Create "Circuits start at 50 Mbps"
      "let e:EXPRESS in e.bandwidth_in_mbps != null => e.bandwidth_in_mbps >= 50";
    rule "EXPRESS-BW-MAX" Create "Circuits are capped at 10 Gbps"
      "let e:EXPRESS in e.bandwidth_in_mbps != null => e.bandwidth_in_mbps <= 10000";
    rule "DISK-SIZE-MIN" Create "Managed disks start at 1 GiB"
      "let d:DISK in d.size_gb != null => d.size_gb >= 1";
    rule "DISK-SIZE-MAX" Create "Managed disks are capped at 32767 GiB"
      "let d:DISK in d.size_gb != null => d.size_gb <= 32767";
    rule "COSMOS-STALENESS-MIN" Create "Staleness interval must be at least 5 seconds"
      "let c:COSMOS in c.consistency_policy.max_interval_in_seconds != null => c.consistency_policy.max_interval_in_seconds >= 5";
    rule "COSMOS-STALENESS-MAX" Create "Staleness interval must be at most 86400 seconds"
      "let c:COSMOS in c.consistency_policy.max_interval_in_seconds != null => c.consistency_policy.max_interval_in_seconds <= 86400";
    rule "TUNNEL-WEIGHT-MIN" Plugin "Routing weight cannot be negative"
      "let t:TUNNEL in t.routing_weight != null => t.routing_weight >= 0";
    rule "TUNNEL-WEIGHT-MAX" Create "Routing weight is capped at 32000"
      "let t:TUNNEL in t.routing_weight != null => t.routing_weight <= 32000";
  ]

(* ---------------- generated rule families --------------------------- *)

let vm_sku_rules () =
  List.concat_map
    (fun (sku : Skus.vm_sku) ->
      let nic =
        rule
          (Printf.sprintf "VM-NICS-%s" sku.Skus.vm_name)
          Create
          (Printf.sprintf "%s VMs support at most %d NICs" sku.Skus.vm_name
             sku.Skus.max_nics)
          (Printf.sprintf
             "let r:VM in r.sku == '%s' => indegree(r, NIC) <= %d"
             sku.Skus.vm_name sku.Skus.max_nics)
      in
      let disks =
        rule
          (Printf.sprintf "VM-DISKS-%s" sku.Skus.vm_name)
          Create
          (Printf.sprintf "%s VMs support at most %d data disks" sku.Skus.vm_name
             sku.Skus.max_data_disks)
          (Printf.sprintf
             "let r:VM in r.sku == '%s' => outdegree(r, ATTACH) <= %d"
             sku.Skus.vm_name sku.Skus.max_data_disks)
      in
      let premium =
        if sku.Skus.premium_io then []
        else
          [
            rule
              (Printf.sprintf "VM-PREMIUM-OS-%s" sku.Skus.vm_name)
              Create
              (Printf.sprintf "%s VMs do not support premium os disks"
                 sku.Skus.vm_name)
              (Printf.sprintf
                 "let r:VM in r.sku == '%s' => r.os_disk.storage_type != 'Premium_LRS'"
                 sku.Skus.vm_name);
            rule
              (Printf.sprintf "VM-PREMIUM-DATA-%s" sku.Skus.vm_name)
              Create
              (Printf.sprintf "%s VMs do not support premium data disks"
                 sku.Skus.vm_name)
              (Printf.sprintf
                 "let r:VM, d:DISK, a:ATTACH in coconn(a.vm_id -> r.id, a.disk_id -> d.id) && r.sku == '%s' => d.storage_type != 'Premium_LRS'"
                 sku.Skus.vm_name);
          ]
      in
      nic :: disks :: premium)
    Skus.vm_skus

let gw_sku_rules () =
  List.concat_map
    (fun (sku : Skus.gw_sku) ->
      let tunnels =
        rule
          (Printf.sprintf "GW-TUNNELS-%s" sku.Skus.gw_name)
          Polling
          (Printf.sprintf "%s sku gateways support at most %d tunnels"
             sku.Skus.gw_name sku.Skus.max_tunnels)
          (Printf.sprintf
             "let g:GW in g.sku == '%s' => outdegree(g, TUNNEL) <= %d"
             sku.Skus.gw_name sku.Skus.max_tunnels)
      in
      let active_active =
        if sku.Skus.supports_active_active then []
        else
          [
            rule
              (Printf.sprintf "GW-AA-%s" sku.Skus.gw_name)
              Plugin
              (Printf.sprintf "%s sku gateways cannot be active-active"
                 sku.Skus.gw_name)
              (Printf.sprintf
                 "let g:GW in g.sku == '%s' => g.active_active == false"
                 sku.Skus.gw_name);
          ]
      in
      tunnels :: active_active)
    Skus.gw_skus

let sa_rules () =
  List.map
    (fun replica ->
      rule
        (Printf.sprintf "SA-PREMIUM-%s" replica)
        Create
        (Printf.sprintf "Premium storage accounts do not support %s replication"
           replica)
        (Printf.sprintf "let r:SA in r.tier == 'Premium' => r.replica != '%s'"
           replica))
    (List.filter
       (fun r -> not (List.mem r Skus.sa_premium_replications))
       Skus.sa_replications)

let appgw_sku_tier_rules () =
  let tier_of name =
    if List.mem name Skus.appgw_v2_skus then
      if String.equal name "WAF_v2" then "WAF_v2" else "Standard_v2"
    else if String.length name >= 3 && String.equal (String.sub name 0 3) "WAF" then
      "WAF"
    else "Standard"
  in
  List.map
    (fun name ->
      rule
        (Printf.sprintf "APPGW-TIER-%s" name)
        Plugin
        (Printf.sprintf "Application gateway sku %s requires tier %s" name
           (tier_of name))
        (Printf.sprintf
           "let a:APPGW in a.sku.name == '%s' => a.sku.tier == '%s'" name
           (tier_of name)))
    Skus.appgw_sku_names

let all_rules = ref None

let ground_truth () =
  match !all_rules with
  | Some rules -> rules
  | None ->
      let rules =
        authored () @ vm_sku_rules () @ gw_sku_rules () @ sa_rules ()
        @ appgw_sku_tier_rules ()
      in
      all_rules := Some rules;
      rules
