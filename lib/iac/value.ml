module Json = Zodiac_util.Json
module Cidr = Zodiac_util.Cidr
module Codec = Zodiac_util.Codec

type reference = { rtype : string; rname : string; attr : string }

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Block of (string * t) list
  | Ref of reference

let reference rtype rname attr = Ref { rtype; rname; attr }

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | List xs, List ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | Block xs, Block ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
           xs ys
  | Ref x, Ref y -> x = y
  | (Null | Bool _ | Int _ | Str _ | List _ | Block _ | Ref _), _ -> false

let compare = Stdlib.compare

let is_null = function Null -> true | _ -> false

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Str s -> Printf.sprintf "%S" s
  | List items -> "[" ^ String.concat ", " (List.map to_string items) ^ "]"
  | Block fields ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%s = %s" k (to_string v)) fields)
      ^ "}"
  | Ref r -> Printf.sprintf "%s.%s.%s" r.rtype r.rname r.attr

let pp fmt v = Format.pp_print_string fmt (to_string v)

let str = function Str s -> Some s | _ -> None

let int = function Int i -> Some i | _ -> None

let bool = function Bool b -> Some b | _ -> None

let refs v =
  let acc = ref [] in
  let rec walk = function
    | Null | Bool _ | Int _ | Str _ -> ()
    | Ref r -> acc := r :: !acc
    | List items -> List.iter walk items
    | Block fields -> List.iter (fun (_, v) -> walk v) fields
  in
  walk v;
  List.rev !acc

let rec map_refs f = function
  | (Null | Bool _ | Int _ | Str _) as v -> v
  | Ref r -> f r
  | List items -> List (List.map (map_refs f) items)
  | Block fields -> Block (List.map (fun (k, v) -> (k, map_refs f v)) fields)

let cidr = function Str s -> Cidr.of_string s | _ -> None

let rec write b = function
  | Null -> Codec.write_byte b 0
  | Bool x ->
      Codec.write_byte b 1;
      Codec.write_bool b x
  | Int i ->
      Codec.write_byte b 2;
      Codec.write_int b i
  | Str s ->
      Codec.write_byte b 3;
      Codec.write_string b s
  | List items ->
      Codec.write_byte b 4;
      Codec.write_list write b items
  | Block fields ->
      Codec.write_byte b 5;
      Codec.write_list
        (fun b (k, v) ->
          Codec.write_string b k;
          write b v)
        b fields
  | Ref r ->
      Codec.write_byte b 6;
      Codec.write_string b r.rtype;
      Codec.write_string b r.rname;
      Codec.write_string b r.attr

let rec read s =
  match Codec.read_byte s with
  | 0 -> Null
  | 1 -> Bool (Codec.read_bool s)
  | 2 -> Int (Codec.read_int s)
  | 3 -> Str (Codec.read_string s)
  | 4 -> List (Codec.read_list read s)
  | 5 ->
      Block
        (Codec.read_list
           (fun s ->
             let k = Codec.read_string s in
             let v = read s in
             (k, v))
           s)
  | 6 ->
      let rtype = Codec.read_string s in
      let rname = Codec.read_string s in
      let attr = Codec.read_string s in
      Ref { rtype; rname; attr }
  | n -> Codec.corrupt "bad value tag %d" n

let codec = { Codec.write; read }

let rec to_json = function
  | Null -> Json.Null
  | Bool b -> Json.Bool b
  | Int i -> Json.Int i
  | Str s -> Json.String s
  | List items -> Json.List (List.map to_json items)
  | Block fields -> Json.Obj (List.map (fun (k, v) -> (k, to_json v)) fields)
  | Ref r -> Json.Obj [ ("__ref__", Json.String (Printf.sprintf "%s.%s.%s" r.rtype r.rname r.attr)) ]

let rec of_json = function
  | Json.Null -> Null
  | Json.Bool b -> Bool b
  | Json.Int i -> Int i
  | Json.Float f -> Int (int_of_float f)
  | Json.String s -> Str s
  | Json.List items -> List (List.map of_json items)
  | Json.Obj [ ("__ref__", Json.String spec) ] -> (
      match String.split_on_char '.' spec with
      | [ rtype; rname; attr ] -> Ref { rtype; rname; attr }
      | rtype :: rname :: rest when rest <> [] ->
          Ref { rtype; rname; attr = String.concat "." rest }
      | _ -> Str spec)
  | Json.Obj fields -> Block (List.map (fun (k, v) -> (k, of_json v)) fields)
