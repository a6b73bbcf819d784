(** EC2 instance-type and RDS instance-class documentation tables: the
    AWS analogue of Azure's sku tables. *)

type instance_type = {
  it_name : string;
  max_enis : int;
  max_ebs : int;
  vcpus : int;
  ebs_optimized : bool;
}

val instance_types : instance_type list
val instance_type_names : string list
val find : string -> instance_type option

type db_class = { db_name : string; db_vcpus : int; multi_az_capable : bool }

val db_classes : db_class list
val db_class_names : string list
val find_db : string -> db_class option
