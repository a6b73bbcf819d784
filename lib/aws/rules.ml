(** The AWS hidden ground-truth rule set. Rule ids carry the [AWS-]
    prefix so SARIF rule ids are provider-distinguishable. As on Azure,
    list order is load-bearing: the simulator reports the first
    violating rule in phase order. *)

module Provider = Zodiac_provider.Provider

type phase = Provider.phase = Plugin | Pre_sync | Create | Polling | Post_sync

let rule = Provider.rule

(* ---------------- hand-authored rules ------------------------------ *)

let authored () =
  [
    (* Region consistency across connected resources. *)
    rule "AWS-LOC-SUBNET-VPC" Create "Subnet must be in its VPC's region"
      "let s:SUBNET, v:VPC in conn(s.vpc_id -> v.id) => s.location == v.location";
    rule "AWS-LOC-IGW-VPC" Create "Internet gateway must be in its VPC's region"
      "let i:IGW, v:VPC in conn(i.vpc_id -> v.id) => i.location == v.location";
    rule "AWS-LOC-RT-VPC" Create "Route table must be in its VPC's region"
      "let r:RT, v:VPC in conn(r.vpc_id -> v.id) => r.location == v.location";
    rule "AWS-LOC-SG-VPC" Create "Security group must be in its VPC's region"
      "let g:SG, v:VPC in conn(g.vpc_id -> v.id) => g.location == v.location";
    rule "AWS-LOC-NATGW-SUBNET" Create "NAT gateway must be in its subnet's region"
      "let n:NATGW, s:SUBNET in conn(n.subnet_id -> s.id) => n.location == s.location";
    rule "AWS-LOC-ENI-SUBNET" Create
      "Network interface must be in its subnet's region"
      "let e:ENI, s:SUBNET in conn(e.subnet_id -> s.id) => e.location == s.location";
    rule "AWS-LOC-INSTANCE-SUBNET" Create "Instance must be in its subnet's region"
      "let i:INSTANCE, s:SUBNET in conn(i.subnet_id -> s.id) => i.location == s.location";
    rule "AWS-LOC-INSTANCE-VPC" Create "Instance must be in its VPC's region"
      "let i:INSTANCE, v:VPC in path(i -> v) => i.location == v.location";
    rule "AWS-LOC-LB-SUBNET" Create "Load balancer must be in its subnets' region"
      "let l:LB, s:SUBNET in conn(l.subnet_ids -> s.id) => l.location == s.location";
    rule "AWS-LOC-DB-SUBNETGRP" Create
      "RDS instance must be in its subnet group's region"
      "let d:DB, g:DBSUBNETGRP in conn(d.db_subnet_group_name -> g.name) => d.location == g.location";
    rule "AWS-LOC-ATTACH" Create "Instance and attached volume must share a region"
      "let i:INSTANCE, v:VOLUME, a:ATTACH in coconn(a.instance_id -> i.id, a.volume_id -> v.id) => i.location == v.location";
    (* CIDR discipline. *)
    rule "AWS-SUBNET-IN-VPC" Create
      "Subnet CIDR must be contained in the VPC CIDR block"
      "let s:SUBNET, v:VPC in conn(s.vpc_id -> v.id) => contain(v.cidr_block, s.cidr_block)";
    rule "AWS-SUBNET-OVERLAP" Create
      "Subnets of the same VPC cannot have overlapping CIDRs"
      "let s1:SUBNET, s2:SUBNET, v:VPC in coconn(s1.vpc_id -> v.id, s2.vpc_id -> v.id) => !overlap(s1.cidr_block, s2.cidr_block)";
    (* Topology cardinality. *)
    rule "AWS-IGW-PER-VPC" Create "A VPC can have at most one internet gateway"
      "let i:IGW, v:VPC in conn(i.vpc_id -> v.id) => outdegree(v, IGW) == 1";
    rule "AWS-RTASSOC-UNIQUE" Create
      "A subnet can be associated with at most one route table"
      "let a:RTASSOC, s:SUBNET in conn(a.subnet_id -> s.id) => outdegree(s, RTASSOC) == 1";
    (* Routing structure. *)
    rule "AWS-ROUTE-TARGET" Plugin
      "A route needs exactly one target (internet gateway or NAT gateway)"
      "let r:ROUTE in r.gateway_id != null => r.nat_gateway_id == null";
    rule "AWS-ROUTE-NAT-TARGET" Plugin
      "A route needs a target (internet gateway or NAT gateway)"
      "let r:ROUTE in r.nat_gateway_id == null => r.gateway_id != null";
    rule "AWS-NATGW-EIP" Create "A public NAT gateway requires an Elastic IP"
      "let n:NATGW in n.connectivity_type == 'public' => n.allocation_id != null";
    rule "AWS-NATGW-PRIVATE-EIP" Plugin
      "A private NAT gateway cannot carry an Elastic IP"
      "let n:NATGW in n.connectivity_type == 'private' => n.allocation_id == null";
    rule "AWS-EIP-DOMAIN" Plugin "NAT gateway Elastic IPs must be VPC-domain"
      "let n:NATGW, e:EIP in conn(n.allocation_id -> e.id) => e.domain == 'vpc'";
    (* Security groups. *)
    rule "AWS-SG-PORT-ORDER" Plugin
      "Security group rule from_port cannot exceed to_port"
      "let g:SG in g.rule[i].from_port != null && g.rule[i].to_port != null => g.rule[i].from_port <= g.rule[i].to_port";
    rule "AWS-SG-SOURCE" Plugin
      "A security group rule cannot name both a CIDR and a source group"
      "let g:SG in g.rule[i].cidr != null => g.rule[i].source_sg_id == null";
    rule "AWS-SG-SAME-VPC-ENI" Create
      "Network interface security groups must belong to the interface's VPC"
      "let e:ENI, g:SG, s:SUBNET in conn(e.sg_ids -> g.id) && conn(e.subnet_id -> s.id) => g.vpc_id == s.vpc_id";
    rule "AWS-SG-SAME-VPC-INSTANCE" Create
      "Instance security groups must belong to the instance's VPC"
      "let i:INSTANCE, g:SG, s:SUBNET in conn(i.sg_ids -> g.id) && conn(i.subnet_id -> s.id) => g.vpc_id == s.vpc_id";
    (* EC2 structure. *)
    rule "AWS-INSTANCE-NET" Plugin
      "An instance is placed in a subnet or on pre-built interfaces"
      "let i:INSTANCE in i.subnet_id == null => i.eni_ids != null";
    rule "AWS-INSTANCE-ENI-SUBNET" Create
      "Instance network interfaces must live in the instance's subnet VPC"
      "let i:INSTANCE, e:ENI in conn(i.eni_ids -> e.id) => i.location == e.location";
    rule "AWS-ATTACH-AZ" Create
      "A volume attaches only to an instance in its availability zone"
      "let i:INSTANCE, v:VOLUME, a:ATTACH in coconn(a.instance_id -> i.id, a.volume_id -> v.id) && i.availability_zone != null => i.availability_zone == v.availability_zone";
    rule "AWS-VOLUME-IOPS" Plugin "Provisioned-IOPS volumes must declare iops"
      "let v:VOLUME in v.type == 'io1' => v.iops != null";
    rule "AWS-VOLUME-IOPS2" Plugin "Provisioned-IOPS volumes must declare iops"
      "let v:VOLUME in v.type == 'io2' => v.iops != null";
    rule "AWS-VOLUME-GP2-IOPS" Plugin
      "gp2 volumes cannot declare provisioned iops"
      "let v:VOLUME in v.type == 'gp2' => v.iops == null";
    rule "AWS-VOLUME-THROUGHPUT" Plugin "Only gp3 volumes declare throughput"
      "let v:VOLUME in v.type == 'gp2' => v.throughput == null";
    (* S3. *)
    rule "AWS-BUCKET-WEBSITE-ACL" Create
      "A bucket website endpoint requires a public-read ACL"
      "let b:BUCKET in b.website != null => b.acl == 'public-read'";
    rule "AWS-BUCKET-KMS-KEY" Plugin "aws:kms bucket encryption requires a key"
      "let b:BUCKET in b.server_side_encryption.sse_algorithm == 'aws:kms' => b.server_side_encryption.kms_key_id != null";
    (* IAM. *)
    rule "AWS-ROLE-SESSION-MAX" Plugin
      "Role max session duration is at most 12 hours"
      "let r:IAM_ROLE in r.max_session_duration != null => r.max_session_duration <= 43200";
    rule "AWS-ROLE-SESSION-MIN" Plugin
      "Role max session duration is at least one hour"
      "let r:IAM_ROLE in r.max_session_duration != null => r.max_session_duration >= 3600";
    (* RDS. *)
    rule "AWS-DB-SUBNETS" Create "An RDS subnet group spans at least two subnets"
      "let g:DBSUBNETGRP in g.subnet_ids != null => indegree(g, SUBNET) >= 2";
    rule "AWS-DB-STORAGE-MIN" Plugin "RDS allocated storage is at least 20 GiB"
      "let d:DB in d.allocated_storage != null => d.allocated_storage >= 20";
    rule "AWS-DB-STORAGE-MAX" Plugin "RDS allocated storage is at most 65536 GiB"
      "let d:DB in d.allocated_storage != null => d.allocated_storage <= 65536";
    rule "AWS-DB-BACKUP-MAX" Plugin "RDS backup retention is at most 35 days"
      "let d:DB in d.backup_retention_period != null => d.backup_retention_period <= 35";
    rule "AWS-DB-BACKUP-MIN" Plugin "RDS backup retention cannot be negative"
      "let d:DB in d.backup_retention_period != null => d.backup_retention_period >= 0";
    (* Load balancers. *)
    rule "AWS-LB-SUBNETS" Create
      "An application load balancer spans at least two subnets"
      "let l:LB in l.lb_type == 'application' => indegree(l, SUBNET) >= 2";
    rule "AWS-LB-NLB-SG" Plugin "Network load balancers carry no security groups"
      "let l:LB in l.lb_type == 'network' => l.sg_ids == null";
    rule "AWS-LB-TIMEOUT-MAX" Plugin "Idle timeout is at most 4000 seconds"
      "let l:LB in l.idle_timeout != null => l.idle_timeout <= 4000";
    rule "AWS-LB-TIMEOUT-MIN" Plugin "Idle timeout is at least one second"
      "let l:LB in l.idle_timeout != null => l.idle_timeout >= 1";
  ]

(* ---------------- documentation-derived rules ----------------------- *)

let instance_type_rules () =
  List.concat_map
    (fun (it : Instances.instance_type) ->
      [
        rule
          (Printf.sprintf "AWS-ENI-LIMIT-%s" it.Instances.it_name)
          Polling
          (Printf.sprintf "%s instances support at most %d network interfaces"
             it.Instances.it_name it.Instances.max_enis)
          (Printf.sprintf
             "let i:INSTANCE in i.instance_type == '%s' => indegree(i, ENI) <= %d"
             it.Instances.it_name it.Instances.max_enis);
        rule
          (Printf.sprintf "AWS-EBS-LIMIT-%s" it.Instances.it_name)
          Polling
          (Printf.sprintf "%s instances support at most %d EBS attachments"
             it.Instances.it_name it.Instances.max_ebs)
          (Printf.sprintf
             "let i:INSTANCE in i.instance_type == '%s' => outdegree(i, ATTACH) <= %d"
             it.Instances.it_name it.Instances.max_ebs);
      ]
      @
      if it.Instances.ebs_optimized then []
      else
        [
          rule
            (Printf.sprintf "AWS-EBSOPT-%s" it.Instances.it_name)
            Plugin
            (Printf.sprintf "%s instances cannot be EBS-optimized"
               it.Instances.it_name)
            (Printf.sprintf
               "let i:INSTANCE in i.instance_type == '%s' => i.ebs_optimized == false"
               it.Instances.it_name);
        ])
    Instances.instance_types

let db_class_rules () =
  List.filter_map
    (fun (c : Instances.db_class) ->
      if c.Instances.multi_az_capable then None
      else
        Some
          (rule
             (Printf.sprintf "AWS-DB-AZ-%s" c.Instances.db_name)
             Plugin
             (Printf.sprintf "%s does not support multi-AZ deployment"
                c.Instances.db_name)
             (Printf.sprintf
                "let d:DB in d.instance_class == '%s' => d.multi_az == false"
                c.Instances.db_name)))
    Instances.db_classes

let all_rules = ref None

let ground_truth () =
  match !all_rules with
  | Some rules -> rules
  | None ->
      let rules = authored () @ instance_type_rules () @ db_class_rules () in
      all_rules := Some rules;
      rules
