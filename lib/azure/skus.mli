(** Azure sku documentation tables.

    These tables stand in for the provider documentation pages the paper
    queries through an LLM (e.g. the Fsv2-series page giving the maximum
    NIC count per VM size). They serve two roles: the cloud simulator
    enforces them as ground truth, and the {!Zodiac_oracle} answers
    interpolation queries from them (with optional noise). *)

type vm_sku = {
  vm_name : string;
  max_nics : int;  (** maximum network interfaces attachable *)
  max_data_disks : int;
  vcpus : int;
  premium_io : bool;  (** supports premium storage disks *)
}

val vm_skus : vm_sku list
val find_vm : string -> vm_sku option
val vm_sku_names : string list

type gw_sku = {
  gw_name : string;
  max_tunnels : int;
  supports_active_active : bool;
  generation : int;
}

val gw_skus : gw_sku list
val find_gw : string -> gw_sku option
val gw_sku_names : string list

val sa_replications : string list
(** All storage-account replication options. *)

val sa_premium_replications : string list
(** Replication options legal for Premium-tier accounts. *)

val appgw_sku_names : string list
val appgw_v2_skus : string list
(** The v2 skus (requiring rule priorities, supporting WAF_v2 policy). *)

val lb_sku_names : string list
val ip_sku_names : string list
