type requirement = Required | Optional | Computed

type format =
  | Free_string
  | Enum of string list
  | Cidr_format
  | Port_format
  | Region
  | Name_format
  | Id_format

type attr_type =
  | T_string
  | T_int
  | T_bool
  | T_list of attr_type
  | T_block of attr list

and attr = {
  aname : string;
  atype : attr_type;
  req : requirement;
  format : format;
  refs_to : (string * string) list;
  default : Value.t option;
}

type t = {
  type_name : string;
  attrs : attr list;
  slow_create : bool;
  description : string;
}

let attr_v ?(req = Optional) ?(format = Free_string) ?(refs_to = []) ?default aname
    atype =
  { aname; atype; req; format; refs_to; default }

let make ?(slow_create = false) ?(description = "") type_name attrs =
  { type_name; attrs; slow_create; description }

let find_attr t (path : Path.t) =
  let rec find attrs = function
    | [] -> None
    | (seg : Path.segment) :: rest -> (
        match List.find_opt (fun a -> String.equal a.aname seg.field) attrs with
        | None -> None
        | Some a -> (
            if rest = [] then Some a
            else
              match a.atype with
              | T_block inner | T_list (T_block inner) -> find inner rest
              | T_string | T_int | T_bool | T_list _ -> None))
  in
  find t.attrs path

let required_attrs t = List.filter (fun a -> a.req = Required) t.attrs

let rec count_attrs attrs =
  List.fold_left
    (fun acc a ->
      acc + 1
      +
      match a.atype with
      | T_block inner | T_list (T_block inner) -> count_attrs inner
      | T_string | T_int | T_bool | T_list _ -> 0)
    0 attrs

let attr_count t = count_attrs t.attrs

let leaf_paths t =
  let acc = ref [] in
  let rec walk prefix attrs =
    List.iter
      (fun a ->
        let path = if prefix = "" then a.aname else prefix ^ "." ^ a.aname in
        match a.atype with
        | T_block inner | T_list (T_block inner) -> walk path inner
        | T_string | T_int | T_bool | T_list _ -> acc := (path, a) :: !acc)
      attrs
  in
  walk "" t.attrs;
  List.rev !acc

let enum_values t path =
  match find_attr t (Path.of_string path) with
  | Some { format = Enum values; _ } -> Some values
  | Some _ | None -> None
