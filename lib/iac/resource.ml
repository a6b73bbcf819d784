module Json = Zodiac_util.Json

type id = { rtype : string; rname : string }

type t = { rtype : string; rname : string; attrs : (string * Value.t) list }

let make rtype rname attrs = { rtype; rname; attrs }

let id r = { rtype = r.rtype; rname = r.rname }

let id_to_string (i : id) = Printf.sprintf "%s.%s" i.rtype i.rname

let equal_id (a : id) (b : id) =
  String.equal a.rtype b.rtype && String.equal a.rname b.rname

let compare_id (a : id) (b : id) =
  match String.compare a.rtype b.rtype with
  | 0 -> String.compare a.rname b.rname
  | c -> c

let attr r name = List.assoc_opt name r.attrs

let get r path = Path.get (Path.of_string path) (Value.Block r.attrs)

let get_all r path = Path.get_all (Path.of_string path) (Value.Block r.attrs)

let remove_attr r name =
  { r with attrs = List.filter (fun (k, _) -> not (String.equal k name)) r.attrs }

let set_path r path v =
  match path with
  | [ { Path.field; index = None } ] when Value.is_null v -> remove_attr r field
  | _ -> ( match Path.set path v (Value.Block r.attrs) with Value.Block attrs -> { r with attrs } | _ -> r)

let set r path v = set_path r (Path.of_string path) v

let references r =
  let acc = ref [] in
  let rec walk path value =
    match value with
    | Value.Ref reference -> acc := (path, reference) :: !acc
    | Value.List items -> List.iter (walk path) items
    | Value.Block fields -> List.iter (fun (k, v) -> walk (path ^ "." ^ k) v) fields
    | Value.Null | Value.Bool _ | Value.Int _ | Value.Str _ -> ()
  in
  List.iter (fun (k, v) -> walk k v) r.attrs;
  List.rev !acc

let rename_refs ~(old_id : id) ~(new_id : id) r =
  let rewrite (reference : Value.reference) =
    if
      String.equal reference.rtype old_id.rtype
      && String.equal reference.rname old_id.rname
    then Value.Ref { reference with rtype = new_id.rtype; rname = new_id.rname }
    else Value.Ref reference
  in
  { r with attrs = List.map (fun (k, v) -> (k, Value.map_refs rewrite v)) r.attrs }

let attr_paths r = List.map (fun (l : Path.leaf) -> l.path) (Path.leaves r.attrs)

let write b r =
  let module Codec = Zodiac_util.Codec in
  Codec.write_string b r.rtype;
  Codec.write_string b r.rname;
  Codec.write_list
    (fun b (k, v) ->
      Codec.write_string b k;
      Value.write b v)
    b r.attrs

let read s =
  let module Codec = Zodiac_util.Codec in
  let rtype = Codec.read_string s in
  let rname = Codec.read_string s in
  let attrs =
    Codec.read_list
      (fun s ->
        let k = Codec.read_string s in
        let v = Value.read s in
        (k, v))
      s
  in
  make rtype rname attrs

let to_json r =
  Json.Obj
    [
      ("type", Json.String r.rtype);
      ("name", Json.String r.rname);
      ("attributes", Json.Obj (List.map (fun (k, v) -> (k, Value.to_json v)) r.attrs));
    ]

let of_json json =
  match
    ( Json.string_value (Json.member "type" json),
      Json.string_value (Json.member "name" json),
      Json.member "attributes" json )
  with
  | Some rtype, Some rname, Json.Obj fields ->
      Some (make rtype rname (List.map (fun (k, v) -> (k, Value.of_json v)) fields))
  | Some rtype, Some rname, Json.Null -> Some (make rtype rname [])
  | _ -> None

let pp fmt r =
  Format.fprintf fmt "resource %s %s {" r.rtype r.rname;
  List.iter (fun (k, v) -> Format.fprintf fmt " %s = %a;" k Value.pp v) r.attrs;
  Format.fprintf fmt " }"
