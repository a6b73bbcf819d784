module Value = Zodiac_iac.Value
module Graph = Zodiac_iac.Graph
module Path = Zodiac_iac.Path

type binding = { var : string; btype : string }

type endpoint = { var : string; attr : string }

type cmp_op = Eq | Ne | Le | Ge | Lt | Gt

type func = Overlap | Contain | Length

type term =
  | Const of Value.t
  | Attr of endpoint
  | Indeg of string * Graph.type_spec
  | Outdeg of string * Graph.type_spec

type expr =
  | Conn of endpoint * endpoint
  | Path of string * string
  | Coconn of (endpoint * endpoint) * (endpoint * endpoint)
  | Copath of (string * string) * (string * string)
  | Cmp of cmp_op * term * term
  | Func of func * term * term
  | Not of expr
  | And of expr list

type category = Intra | Inter_no_agg | Inter_agg | Interpolated

type source = Mined | Llm_interpolated | Authored

type t = {
  cid : string;
  bindings : binding list;
  cond : expr;
  stmt : expr;
  source : source;
}

(* Canonical rendering used only for digesting into a stable id. *)
let tyspec_render = function
  | Graph.Type ty -> ty
  | Graph.Not_type ty -> "!" ^ ty

let term_render = function
  | Const v -> Value.to_string v
  | Attr e -> Printf.sprintf "%s.%s" e.var e.attr
  | Indeg (v, ty) -> Printf.sprintf "indeg(%s,%s)" v (tyspec_render ty)
  | Outdeg (v, ty) -> Printf.sprintf "outdeg(%s,%s)" v (tyspec_render ty)

let cmp_render = function
  | Eq -> "=="
  | Ne -> "!="
  | Le -> "<="
  | Ge -> ">="
  | Lt -> "<"
  | Gt -> ">"

let func_render = function Overlap -> "overlap" | Contain -> "contain" | Length -> "length"

let rec expr_render = function
  | Conn (a, b) -> Printf.sprintf "conn(%s.%s->%s.%s)" a.var a.attr b.var b.attr
  | Path (a, b) -> Printf.sprintf "path(%s->%s)" a b
  | Coconn ((a, b), (c, d)) ->
      Printf.sprintf "coconn(%s.%s->%s.%s,%s.%s->%s.%s)" a.var a.attr b.var b.attr
        c.var c.attr d.var d.attr
  | Copath ((a, b), (c, d)) -> Printf.sprintf "copath(%s->%s,%s->%s)" a b c d
  | Cmp (op, t1, t2) ->
      Printf.sprintf "%s%s%s" (term_render t1) (cmp_render op) (term_render t2)
  | Func (f, t1, t2) ->
      Printf.sprintf "%s(%s,%s)" (func_render f) (term_render t1) (term_render t2)
  | Not e -> "!" ^ expr_render e
  | And es -> String.concat "&&" (List.map expr_render es)

let render c =
  Printf.sprintf "let %s in %s => %s"
    (String.concat ","
       (List.map
          (fun (b : binding) -> Printf.sprintf "%s:%s" b.var b.btype)
          c.bindings))
    (expr_render c.cond) (expr_render c.stmt)

(* FNV-1a over the canonical rendering. *)
let digest s =
  let h = ref 0x3f29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  Printf.sprintf "c%08x" (!h land 0xFFFFFFFF)

let make ?cid ?(source = Authored) bindings cond stmt =
  let proto = { cid = ""; bindings; cond; stmt; source } in
  let cid = match cid with Some id -> id | None -> digest (render proto) in
  { proto with cid }

(* Binary codec for the warm-start cache. The cid is stored verbatim so
   a decoded check is field-identical to the encoded one (no re-digest). *)
module Codec = Zodiac_util.Codec

let write_endpoint b (e : endpoint) =
  Codec.write_string b e.var;
  Codec.write_string b e.attr

let read_endpoint s =
  let var = Codec.read_string s in
  let attr = Codec.read_string s in
  { var; attr }

let write_tyspec b = function
  | Graph.Type ty ->
      Codec.write_byte b 0;
      Codec.write_string b ty
  | Graph.Not_type ty ->
      Codec.write_byte b 1;
      Codec.write_string b ty

let read_tyspec s =
  match Codec.read_byte s with
  | 0 -> Graph.Type (Codec.read_string s)
  | 1 -> Graph.Not_type (Codec.read_string s)
  | n -> Codec.corrupt "bad type_spec tag %d" n

let cmp_code = function Eq -> 0 | Ne -> 1 | Le -> 2 | Ge -> 3 | Lt -> 4 | Gt -> 5

let cmp_of_code = function
  | 0 -> Eq
  | 1 -> Ne
  | 2 -> Le
  | 3 -> Ge
  | 4 -> Lt
  | 5 -> Gt
  | n -> Codec.corrupt "bad cmp_op tag %d" n

let func_code = function Overlap -> 0 | Contain -> 1 | Length -> 2

let func_of_code = function
  | 0 -> Overlap
  | 1 -> Contain
  | 2 -> Length
  | n -> Codec.corrupt "bad func tag %d" n

let write_term b = function
  | Const v ->
      Codec.write_byte b 0;
      Value.write b v
  | Attr e ->
      Codec.write_byte b 1;
      write_endpoint b e
  | Indeg (v, ty) ->
      Codec.write_byte b 2;
      Codec.write_string b v;
      write_tyspec b ty
  | Outdeg (v, ty) ->
      Codec.write_byte b 3;
      Codec.write_string b v;
      write_tyspec b ty

let read_term s =
  match Codec.read_byte s with
  | 0 -> Const (Value.read s)
  | 1 -> Attr (read_endpoint s)
  | 2 ->
      let v = Codec.read_string s in
      Indeg (v, read_tyspec s)
  | 3 ->
      let v = Codec.read_string s in
      Outdeg (v, read_tyspec s)
  | n -> Codec.corrupt "bad term tag %d" n

let rec write_expr b = function
  | Conn (a, e) ->
      Codec.write_byte b 0;
      write_endpoint b a;
      write_endpoint b e
  | Path (a, e) ->
      Codec.write_byte b 1;
      Codec.write_string b a;
      Codec.write_string b e
  | Coconn ((a, e), (c, d)) ->
      Codec.write_byte b 2;
      write_endpoint b a;
      write_endpoint b e;
      write_endpoint b c;
      write_endpoint b d
  | Copath ((a, e), (c, d)) ->
      Codec.write_byte b 3;
      Codec.write_string b a;
      Codec.write_string b e;
      Codec.write_string b c;
      Codec.write_string b d
  | Cmp (op, t1, t2) ->
      Codec.write_byte b 4;
      Codec.write_byte b (cmp_code op);
      write_term b t1;
      write_term b t2
  | Func (f, t1, t2) ->
      Codec.write_byte b 5;
      Codec.write_byte b (func_code f);
      write_term b t1;
      write_term b t2
  | Not e ->
      Codec.write_byte b 6;
      write_expr b e
  | And es ->
      Codec.write_byte b 7;
      Codec.write_list write_expr b es

let rec read_expr s =
  match Codec.read_byte s with
  | 0 ->
      let a = read_endpoint s in
      let e = read_endpoint s in
      Conn (a, e)
  | 1 ->
      let a = Codec.read_string s in
      let e = Codec.read_string s in
      Path (a, e)
  | 2 ->
      let a = read_endpoint s in
      let e = read_endpoint s in
      let c = read_endpoint s in
      let d = read_endpoint s in
      Coconn ((a, e), (c, d))
  | 3 ->
      let a = Codec.read_string s in
      let e = Codec.read_string s in
      let c = Codec.read_string s in
      let d = Codec.read_string s in
      Copath ((a, e), (c, d))
  | 4 ->
      let op = cmp_of_code (Codec.read_byte s) in
      let t1 = read_term s in
      let t2 = read_term s in
      Cmp (op, t1, t2)
  | 5 ->
      let f = func_of_code (Codec.read_byte s) in
      let t1 = read_term s in
      let t2 = read_term s in
      Func (f, t1, t2)
  | 6 -> Not (read_expr s)
  | 7 -> And (Codec.read_list read_expr s)
  | n -> Codec.corrupt "bad expr tag %d" n

let source_code = function Mined -> 0 | Llm_interpolated -> 1 | Authored -> 2

let source_of_code = function
  | 0 -> Mined
  | 1 -> Llm_interpolated
  | 2 -> Authored
  | n -> Codec.corrupt "bad source tag %d" n

let write b c =
  Codec.write_string b c.cid;
  Codec.write_list
    (fun b (bd : binding) ->
      Codec.write_string b bd.var;
      Codec.write_string b bd.btype)
    b c.bindings;
  write_expr b c.cond;
  write_expr b c.stmt;
  Codec.write_byte b (source_code c.source)

let read s =
  let cid = Codec.read_string s in
  let bindings =
    Codec.read_list
      (fun s ->
        let var = Codec.read_string s in
        let btype = Codec.read_string s in
        { var; btype })
      s
  in
  let cond = read_expr s in
  let stmt = read_expr s in
  let source = source_of_code (Codec.read_byte s) in
  { cid; bindings; cond; stmt; source }

let rec attrs_of_expr = function
  | Conn (a, b) -> [ a; b ]
  | Path _ | Copath _ -> []
  | Coconn ((a, b), (c, d)) -> [ a; b; c; d ]
  | Cmp (_, t1, t2) | Func (_, t1, t2) -> term_attrs t1 @ term_attrs t2
  | Not e -> attrs_of_expr e
  | And es -> List.concat_map attrs_of_expr es

and term_attrs = function
  | Const _ | Indeg _ | Outdeg _ -> []
  | Attr e -> [ e ]

let rec has_agg = function
  | Cmp (_, t1, t2) | Func (_, t1, t2) -> term_agg t1 || term_agg t2
  | Not e -> has_agg e
  | And es -> List.exists has_agg es
  | Conn _ | Path _ | Coconn _ | Copath _ -> false

and term_agg = function Indeg _ | Outdeg _ -> true | Const _ | Attr _ -> false

let category c =
  if c.source = Llm_interpolated then Interpolated
  else if has_agg c.cond || has_agg c.stmt then Inter_agg
  else if List.length c.bindings <= 1 then Intra
  else Inter_no_agg

let binding_type c var =
  List.find_map
    (fun (b : binding) -> if String.equal b.var var then Some b.btype else None)
    c.bindings

let index_vars c =
  Path.index_vars
    (List.concat_map (fun e -> Path.of_string e.attr) (attrs_of_expr c.cond @ attrs_of_expr c.stmt))

let strip_indices path = Path.to_string (Path.strip (Path.of_string path))

let equal a b =
  a.bindings = b.bindings && a.cond = b.cond && a.stmt = b.stmt

let compare a b = Stdlib.compare (render a) (render b)
