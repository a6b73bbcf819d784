(** The AWS resource catalogue: S3/EC2/IAM/VPC/security-group-shaped
    schemas with the [aws_*] Terraform name mapping. The shapes follow
    the Terraform AWS provider closely enough that the mining families
    (value, presence, CIDR containment, degree, connection) all have
    something to bite on, while staying far smaller than the Azure
    catalogue — breadth lives on the Azure side. *)

open Zodiac_iac.Schema
module Value = Zodiac_iac.Value

let req = Required
let computed = Computed
let a = attr_v
let str_default s = Value.Str s
let bool_default b = Value.Bool b
let int_default i = Value.Int i

(* Attributes shared by nearly every resource in this catalogue. In
   Terraform the region lives on the provider block; modelling it as a
   per-resource attribute (like the console's region picker) gives the
   location-agreement family the same shape as on Azure. *)
let name_attr = a ~req ~format:Name_format "name" T_string
let location_attr = a ~req ~format:Region "location" T_string
let id_attr = a ~req:computed ~format:Id_format "id" T_string
let arn_attr = a ~req:computed ~format:Id_format "arn" T_string
let tags_attr = a "tags" (T_block [])

let common = [ name_attr; location_attr; id_attr; arn_attr; tags_attr ]

let vpc =
  make ~description:"VPC" "VPC"
    (common
    @ [
        a ~req ~format:Cidr_format "cidr_block" T_string;
        a ~default:(bool_default true) "enable_dns_support" T_bool;
        a ~default:(bool_default false) "enable_dns_hostnames" T_bool;
        a ~default:(str_default "default")
          ~format:(Enum [ "default"; "dedicated" ])
          "instance_tenancy" T_string;
        a ~default:(bool_default false) "assign_generated_ipv6_cidr_block" T_bool;
      ])

let subnet =
  make ~description:"VPC subnet" "SUBNET"
    (common
    @ [
        a ~req ~format:Id_format ~refs_to:[ ("VPC", "id") ] "vpc_id" T_string;
        a ~req ~format:Cidr_format "cidr_block" T_string;
        a "availability_zone" T_string;
        a ~default:(bool_default false) "map_public_ip_on_launch" T_bool;
        a ~default:(bool_default false) "assign_ipv6_address_on_creation" T_bool;
      ])

let igw =
  make ~description:"Internet gateway" "IGW"
    (common @ [ a ~req ~format:Id_format ~refs_to:[ ("VPC", "id") ] "vpc_id" T_string ])

let eip =
  make ~description:"Elastic IP" "EIP"
    (common
    @ [
        a ~default:(str_default "vpc") ~format:(Enum [ "vpc"; "standard" ]) "domain"
          T_string;
        a ~req:computed "public_ip" T_string;
      ])

let natgw =
  make ~description:"NAT gateway" "NATGW"
    (common
    @ [
        a ~req ~format:Id_format ~refs_to:[ ("SUBNET", "id") ] "subnet_id" T_string;
        a ~format:Id_format ~refs_to:[ ("EIP", "id") ] "allocation_id" T_string;
        a ~default:(str_default "public")
          ~format:(Enum [ "public"; "private" ])
          "connectivity_type" T_string;
      ])

let rt =
  make ~description:"Route table" "RT"
    (common @ [ a ~req ~format:Id_format ~refs_to:[ ("VPC", "id") ] "vpc_id" T_string ])

let route =
  make ~description:"Route" "ROUTE"
    [
      name_attr;
      id_attr;
      a ~req ~format:Id_format ~refs_to:[ ("RT", "id") ] "rt_id" T_string;
      a ~req ~format:Cidr_format "destination_cidr_block" T_string;
      a ~format:Id_format ~refs_to:[ ("IGW", "id") ] "gateway_id" T_string;
      a ~format:Id_format ~refs_to:[ ("NATGW", "id") ] "nat_gateway_id" T_string;
    ]

let rtassoc =
  make ~description:"Route table association" "RTASSOC"
    [
      id_attr;
      a ~req ~format:Id_format ~refs_to:[ ("SUBNET", "id") ] "subnet_id" T_string;
      a ~req ~format:Id_format ~refs_to:[ ("RT", "id") ] "rt_id" T_string;
    ]

let sg =
  make ~description:"Security group" "SG"
    (common
    @ [
        a ~req ~format:Id_format ~refs_to:[ ("VPC", "id") ] "vpc_id" T_string;
        a "description" T_string;
        a "rule"
          (T_list
             (T_block
                [
                  a ~req ~format:(Enum [ "ingress"; "egress" ]) "dir" T_string;
                  a ~req
                    ~format:(Enum [ "tcp"; "udp"; "icmp"; "-1" ])
                    "protocol" T_string;
                  a ~format:Port_format "from_port" T_int;
                  a ~format:Port_format "to_port" T_int;
                  a ~format:Cidr_format "cidr" T_string;
                  a ~format:Id_format "source_sg_id" T_string;
                ]));
        a ~default:(bool_default false) "revoke_rules_on_delete" T_bool;
      ])

let eni =
  make ~description:"Elastic network interface" "ENI"
    (common
    @ [
        a ~req ~format:Id_format ~refs_to:[ ("SUBNET", "id") ] "subnet_id" T_string;
        a ~format:Id_format ~refs_to:[ ("SG", "id") ] "sg_ids" (T_list T_string);
        a "private_ip" T_string;
        a ~default:(bool_default false) "source_dest_check_disabled" T_bool;
      ])

let instance =
  make ~description:"EC2 instance" "INSTANCE"
    (common
    @ [
        a ~req ~format:(Enum Instances.instance_type_names) "instance_type" T_string;
        a ~req "ami" T_string;
        a ~format:Id_format ~refs_to:[ ("SUBNET", "id") ] "subnet_id" T_string;
        a ~format:Id_format ~refs_to:[ ("ENI", "id") ] "eni_ids" (T_list T_string);
        a ~format:Id_format ~refs_to:[ ("SG", "id") ] "sg_ids" (T_list T_string);
        a "availability_zone" T_string;
        a "key_name" T_string;
        a ~default:(bool_default false) "associate_public_ip_address" T_bool;
        a ~default:(bool_default true) "source_dest_check" T_bool;
        a ~default:(bool_default false) "ebs_optimized" T_bool;
        a ~default:(bool_default false) "monitoring" T_bool;
        a "root_block_device"
          (T_block
             [
               a ~default:(str_default "gp2")
                 ~format:(Enum [ "gp2"; "gp3"; "io1"; "io2"; "standard" ])
                 "volume_type" T_string;
               a "volume_size" T_int;
               a ~default:(bool_default false) "encrypted" T_bool;
               a ~default:(bool_default true) "delete_on_termination" T_bool;
             ]);
        a ~format:Id_format ~refs_to:[ ("INSTANCE_PROFILE", "name") ]
          "iam_instance_profile" T_string;
        a ~default:(str_default "stop")
          ~format:(Enum [ "stop"; "terminate"; "hibernate" ])
          "instance_initiated_shutdown_behavior" T_string;
        a "user_data" T_string;
        a ~default:(str_default "on-demand")
          ~format:(Enum [ "on-demand"; "spot" ])
          "purchase_option" T_string;
        a ~req:computed "private_ip" T_string;
        a ~req:computed "public_ip" T_string;
      ])

let volume =
  make ~description:"EBS volume" "VOLUME"
    (common
    @ [
        a ~req "availability_zone" T_string;
        a ~req "size" T_int;
        a ~default:(str_default "gp2")
          ~format:(Enum [ "gp2"; "gp3"; "io1"; "io2"; "st1"; "sc1"; "standard" ])
          "type" T_string;
        a "iops" T_int;
        a "throughput" T_int;
        a ~default:(bool_default false) "encrypted" T_bool;
        a ~format:Id_format "kms_key_id" T_string;
      ])

let attach =
  make ~description:"EBS volume attachment" "ATTACH"
    [
      id_attr;
      a ~req "device_name" T_string;
      a ~req ~format:Id_format ~refs_to:[ ("INSTANCE", "id") ] "instance_id" T_string;
      a ~req ~format:Id_format ~refs_to:[ ("VOLUME", "id") ] "volume_id" T_string;
      a ~default:(bool_default false) "force_detach" T_bool;
    ]

let bucket =
  make ~description:"S3 bucket" "BUCKET"
    (common
    @ [
        a ~default:(str_default "private")
          ~format:
            (Enum [ "private"; "public-read"; "public-read-write"; "authenticated-read" ])
          "acl" T_string;
        a ~default:(bool_default false) "force_destroy" T_bool;
        a "versioning"
          (T_block [ a ~default:(bool_default false) "enabled" T_bool ]);
        a "server_side_encryption"
          (T_block
             [
               a ~default:(str_default "AES256")
                 ~format:(Enum [ "AES256"; "aws:kms" ])
                 "sse_algorithm" T_string;
               a ~format:Id_format "kms_key_id" T_string;
             ]);
        a "website"
          (T_block [ a ~req "index_document" T_string; a "error_document" T_string ]);
        a ~default:(bool_default true) "block_public_policy" T_bool;
      ])

let iam_role =
  make ~description:"IAM role" "IAM_ROLE"
    [
      name_attr;
      id_attr;
      arn_attr;
      tags_attr;
      a ~req "assume_role_policy" T_string;
      a ~default:(str_default "/") "path" T_string;
      a ~default:(int_default 3600) "max_session_duration" T_int;
      a "description" T_string;
    ]

let iam_policy =
  make ~description:"IAM policy" "IAM_POLICY"
    [
      name_attr;
      id_attr;
      arn_attr;
      tags_attr;
      a ~req "policy" T_string;
      a ~default:(str_default "/") "path" T_string;
      a "description" T_string;
    ]

let iam_attach =
  make ~description:"IAM role-policy attachment" "IAM_ATTACH"
    [
      id_attr;
      a ~req ~format:Name_format ~refs_to:[ ("IAM_ROLE", "name") ] "role" T_string;
      a ~req ~format:Id_format ~refs_to:[ ("IAM_POLICY", "arn") ] "policy_arn" T_string;
    ]

let instance_profile =
  make ~description:"IAM instance profile" "INSTANCE_PROFILE"
    [
      name_attr;
      id_attr;
      arn_attr;
      a ~req ~format:Name_format ~refs_to:[ ("IAM_ROLE", "name") ] "role" T_string;
      a ~default:(str_default "/") "path" T_string;
    ]

let dbsubnetgrp =
  make ~description:"RDS subnet group" "DBSUBNETGRP"
    (common
    @ [
        a ~req ~format:Id_format ~refs_to:[ ("SUBNET", "id") ] "subnet_ids"
          (T_list T_string);
        a "description" T_string;
      ])

let db =
  make ~description:"RDS instance" "DB"
    (common
    @ [
        a ~req ~format:(Enum [ "mysql"; "postgres"; "mariadb" ]) "engine" T_string;
        a "engine_version" T_string;
        a ~req ~format:(Enum Instances.db_class_names) "instance_class" T_string;
        a ~req "allocated_storage" T_int;
        a ~default:(str_default "gp2")
          ~format:(Enum [ "gp2"; "gp3"; "io1"; "standard" ])
          "storage_type" T_string;
        a "username" T_string;
        a "password" T_string;
        a ~format:Name_format ~refs_to:[ ("DBSUBNETGRP", "name") ]
          "db_subnet_group_name" T_string;
        a ~format:Id_format ~refs_to:[ ("SG", "id") ] "sg_ids" (T_list T_string);
        a ~default:(bool_default false) "multi_az" T_bool;
        a ~default:(bool_default false) "publicly_accessible" T_bool;
        a ~default:(bool_default false) "storage_encrypted" T_bool;
        a ~default:(int_default 1) "backup_retention_period" T_int;
        a ~default:(bool_default true) "skip_final_snapshot" T_bool;
      ])

let lb =
  make ~description:"Elastic load balancer" "LB"
    (common
    @ [
        a ~default:(str_default "application")
          ~format:(Enum [ "application"; "network"; "gateway" ])
          "lb_type" T_string;
        a ~default:(bool_default false) "internal" T_bool;
        a ~req ~format:Id_format ~refs_to:[ ("SUBNET", "id") ] "subnet_ids"
          (T_list T_string);
        a ~format:Id_format ~refs_to:[ ("SG", "id") ] "sg_ids" (T_list T_string);
        a ~default:(bool_default false) "enable_deletion_protection" T_bool;
        a ~default:(int_default 60) "idle_timeout" T_int;
      ])

let schemas =
  [
    vpc; subnet; igw; eip; natgw; rt; route; rtassoc; sg; eni; instance; volume;
    attach; bucket; iam_role; iam_policy; iam_attach; instance_profile; dbsubnetgrp;
    db; lb;
  ]

let find name = List.find_opt (fun s -> String.equal s.type_name name) schemas

let type_names = List.map (fun s -> s.type_name) schemas

let terraform_names =
  [
    ("aws_vpc", "VPC");
    ("aws_subnet", "SUBNET");
    ("aws_internet_gateway", "IGW");
    ("aws_eip", "EIP");
    ("aws_nat_gateway", "NATGW");
    ("aws_route_table", "RT");
    ("aws_route", "ROUTE");
    ("aws_route_table_association", "RTASSOC");
    ("aws_security_group", "SG");
    ("aws_network_interface", "ENI");
    ("aws_instance", "INSTANCE");
    ("aws_ebs_volume", "VOLUME");
    ("aws_volume_attachment", "ATTACH");
    ("aws_s3_bucket", "BUCKET");
    ("aws_iam_role", "IAM_ROLE");
    ("aws_iam_policy", "IAM_POLICY");
    ("aws_iam_role_policy_attachment", "IAM_ATTACH");
    ("aws_iam_instance_profile", "INSTANCE_PROFILE");
    ("aws_db_subnet_group", "DBSUBNETGRP");
    ("aws_db_instance", "DB");
    ("aws_lb", "LB");
  ]

let of_terraform tf = List.assoc_opt tf terraform_names

let to_terraform canonical =
  match
    List.find_opt (fun (_, c) -> String.equal c canonical) terraform_names
  with
  | Some (tf, _) -> tf
  | None -> canonical

(* AWS has no provider-reserved subnet names. *)
let reserved_names : (string * string) list = []
