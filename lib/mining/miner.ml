module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Graph = Zodiac_iac.Graph
module Schema = Zodiac_iac.Schema
module Path = Zodiac_iac.Path
module Check = Zodiac_spec.Check
module Kb = Zodiac_kb.Kb
module Defaults = Zodiac_cloud.Defaults
module Provider = Zodiac_provider.Provider
module Cidr = Zodiac_util.Cidr
module Parallel = Zodiac_util.Parallel
module Codec = Zodiac_util.Codec

type config = { use_kb : bool; min_support : int }

let default_config = { use_kb = true; min_support = 4 }

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let incr_tbl tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let get_count tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key)

let add_count tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* One more trial of a (trials, hits) statistic. *)
let tally tbl key hit =
  let d, s = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (d + 1, if hit then s + 1 else s)

let lift_of conf prior =
  let prior = Float.max prior 1e-6 in
  Float.min (conf /. prior) 1000.0

(* Statement prior for equality between two attribute populations:
   sum over values of P1(v) * P2(v), from the KB's observation tables. *)
let eq_baseline kb (ta, xa) (tb, yb) =
  match
    (Kb.attr_info kb ~rtype:ta ~attr:xa, Kb.attr_info kb ~rtype:tb ~attr:yb)
  with
  | Some i1, Some i2 ->
      let total1 = i1.Kb.observed_total in
      let total2 = i2.Kb.observed_total in
      if total1 = 0 || total2 = 0 then 0.0
      else
        (* iterate the canonically-sorted list (stable float summation
           order) but probe the other side's hash index: O(n) not O(n^2) *)
        List.fold_left
          (fun acc (v, c1) ->
            match Hashtbl.find_opt i2.Kb.observed_index v with
            | Some c2 ->
                acc
                +. (float_of_int c1 /. float_of_int total1)
                   *. (float_of_int c2 /. float_of_int total2)
            | None -> acc)
          0.0 i1.Kb.observed
  | _ -> 0.0

(* P(attr = v) over the whole type population: resources lacking the
   attribute count as "not equal". *)
let value_prior kb rtype attr v =
  match Kb.attr_info kb ~rtype ~attr with
  | None -> 0.0
  | Some info ->
      let population = max (Kb.population kb rtype) 1 in
      Float.min 1.0
        (float_of_int
           (Option.value ~default:0 (Hashtbl.find_opt info.Kb.observed_index v))
        /. float_of_int population)

let presence_prior kb rtype attr =
  match Kb.attr_info kb ~rtype ~attr with
  | None -> 0.0
  | Some info ->
      let population = max (Kb.population kb rtype) 1 in
      Float.min 1.0 (float_of_int info.Kb.occurrences /. float_of_int population)

let is_scalar = function
  | Value.Str _ | Value.Bool _ -> true
  | Value.Int _ | Value.Null | Value.List _ | Value.Block _ | Value.Ref _ -> false

(* Facts about one resource used by the intra families. *)
type fact = F_val of string * Value.t | F_present of string

(* Check constructors. *)
let attr_term var attr = Check.Attr { Check.var; attr }

let fact_cond var = function
  | F_val (attr, v) -> Check.Cmp (Check.Eq, attr_term var attr, Check.Const v)
  | F_present attr -> Check.Cmp (Check.Ne, attr_term var attr, Check.Const Value.Null)

let intra_check ty cond stmt =
  Check.make ~source:Check.Mined [ { Check.var = "r"; btype = ty } ] cond stmt


(* ------------------------------------------------------------------ *)
(* The count tables                                                    *)
(* ------------------------------------------------------------------ *)

type conn_key = string * string * string * string (* src ty, src attr, dst ty, dst attr *)

(* Every family's counts as one value: the unit a parallel chunk or a
   streamed shard counts, merges and checkpoints, and that emission
   reads once the corpus is folded. (d, s) pairs are (trials, hits). *)
type tables = {
  (* intra-resource *)
  n_by_type : (string, int) Hashtbl.t;
  single : (string * fact, int) Hashtbl.t;
  pair : (string * fact * fact, int) Hashtbl.t;
  num_range : (string * fact * string, int * int * int) Hashtbl.t;
      (* (type, cond fact, numeric attr) -> (min, max, count) *)
  (* indexed (repeated blocks): (type, coll, x, y) -> (pairs equal on
     x, of those distinct on y) for EQ-NE; (type, coll, y) -> (pairs,
     distinct pairs) for NE; (type, coll, y) -> value counts *)
  eqne : (string * string * string * string, int * int) Hashtbl.t;
  ne : (string * string * string, int * int) Hashtbl.t;
  elem_values : (string * string * string, (Value.t, int) Hashtbl.t) Hashtbl.t;
  (* inter-resource *)
  edgecount : (conn_key, int) Hashtbl.t;
  paireq : (conn_key * string * string, int) Hashtbl.t;
  dstval : (conn_key * string * Value.t, int) Hashtbl.t;
  srcval : (conn_key * string * Value.t, int) Hashtbl.t;
  dstnull : (conn_key * string, int) Hashtbl.t;
  cond2 : (conn_key * string * Value.t, int) Hashtbl.t;
  both2 : (conn_key * string * Value.t * string * Value.t, int) Hashtbl.t;
  containc : (conn_key * string * string, int * int) Hashtbl.t;
  sibcount : (conn_key, int) Hashtbl.t;
  sib_nooverlap : (conn_key * string, int * int) Hashtbl.t;
  sib_ne : (conn_key * string, int * int) Hashtbl.t;
  assoc_eq : (conn_key * conn_key * string * string, int * int) Hashtbl.t;
  assoc_count : (conn_key * conn_key, int) Hashtbl.t;
  outdeg_one : (conn_key, int) Hashtbl.t;
  outdeg_excl : (conn_key, int) Hashtbl.t;
  copath_pairs : (string * string * string, int * int) Hashtbl.t;
  patheq : (string * string * string * string, int * int) Hashtbl.t;
      (* (src ty, dst ty, src attr, dst attr) -> (pairs, equal) *)
  deg_max : (string * string * Value.t * string * [ `In | `Out ], int * int) Hashtbl.t;
      (* (type, attr, value, peer type, direction) -> (max degree, count) *)
  name_excl : (string * string * string, int * int) Hashtbl.t;
}

let create () =
  let h = Hashtbl.create in
  {
    n_by_type = h 64;
    single = h 1024;
    pair = h 4096;
    num_range = h 256;
    eqne = h 128;
    ne = h 128;
    elem_values = h 128;
    edgecount = h 128;
    paireq = h 512;
    dstval = h 512;
    srcval = h 512;
    dstnull = h 512;
    cond2 = h 512;
    both2 = h 512;
    containc = h 64;
    sibcount = h 64;
    sib_nooverlap = h 64;
    sib_ne = h 64;
    assoc_eq = h 128;
    assoc_count = h 64;
    outdeg_one = h 64;
    outdeg_excl = h 64;
    copath_pairs = h 64;
    patheq = h 256;
    deg_max = h 256;
    name_excl = h 32;
  }

(* A table's value codec and merge monoid: [combine] folds a source row
   into the destination row under the same key; [fresh] stores a row the
   destination lacks, copying a mutable value so that a merge never
   aliases its source. Every monoid is exact integer arithmetic, so the
   merged counts do not depend on how the corpus was grouped. *)
type 'v monoid = { value : 'v Codec.t; fresh : 'v -> 'v; combine : 'v -> 'v -> 'v }

let sum = { value = Codec.int; fresh = Fun.id; combine = ( + ) }

let sum_pair =
  {
    value = Codec.(pair int int);
    fresh = Fun.id;
    combine = (fun (d0, s0) (d, s) -> (d0 + d, s0 + s));
  }

let min_max_sum =
  {
    value = Codec.(triple int int int);
    fresh = Fun.id;
    combine = (fun (lo0, hi0, c0) (lo, hi, c) -> (min lo0 lo, max hi0 hi, c0 + c));
  }

let max_sum =
  {
    value = Codec.(pair int int);
    fresh = Fun.id;
    combine = (fun (hi0, c0) (hi, c) -> (max hi0 hi, c0 + c));
  }

let value_counts =
  {
    value = Codec.table Value.codec Codec.int;
    fresh = Hashtbl.copy;
    combine =
      (fun into tbl ->
        Hashtbl.iter (add_count into) tbl;
        into);
  }

let fact_codec =
  {
    Codec.write =
      (fun b -> function
        | F_val (attr, v) ->
            Codec.write_byte b 0;
            Codec.write_string b attr;
            Value.write b v
        | F_present attr ->
            Codec.write_byte b 1;
            Codec.write_string b attr);
    read =
      (fun s ->
        match Codec.read_byte s with
        | 0 ->
            let attr = Codec.read_string s in
            F_val (attr, Value.read s)
        | 1 -> F_present (Codec.read_string s)
        | n -> Codec.corrupt "bad fact tag %d" n);
  }

let direction_codec =
  {
    Codec.write = (fun b dir -> Codec.write_byte b (match dir with `In -> 0 | `Out -> 1));
    read =
      (fun s ->
        match Codec.read_byte s with
        | 0 -> `In
        | 1 -> `Out
        | n -> Codec.corrupt "bad degree direction tag %d" n);
  }

type field = Field : 'k Codec.t * 'v monoid * (tables -> ('k, 'v) Hashtbl.t) -> field

(* One entry per table: its key codec, its monoid and where it lives.
   The order is the checkpoint layout, so reordering it changes the
   bytes of every shard checkpoint (bump [Codec.version] if it must). *)
let fields =
  let open Codec in
  let value = Value.codec and fact = fact_codec in
  let conn = quad string string string string in
  [
    Field (string, sum, fun t -> t.n_by_type);
    Field (pair string fact, sum, fun t -> t.single);
    Field (triple string fact fact, sum, fun t -> t.pair);
    Field (triple string fact string, min_max_sum, fun t -> t.num_range);
    Field (quad string string string string, sum_pair, fun t -> t.eqne);
    Field (triple string string string, sum_pair, fun t -> t.ne);
    Field (triple string string string, value_counts, fun t -> t.elem_values);
    Field (conn, sum, fun t -> t.edgecount);
    Field (triple conn string string, sum, fun t -> t.paireq);
    Field (triple conn string value, sum, fun t -> t.dstval);
    Field (triple conn string value, sum, fun t -> t.srcval);
    Field (pair conn string, sum, fun t -> t.dstnull);
    Field (triple conn string value, sum, fun t -> t.cond2);
    Field (quint conn string value string value, sum, fun t -> t.both2);
    Field (triple conn string string, sum_pair, fun t -> t.containc);
    Field (conn, sum, fun t -> t.sibcount);
    Field (pair conn string, sum_pair, fun t -> t.sib_nooverlap);
    Field (pair conn string, sum_pair, fun t -> t.sib_ne);
    Field (quad conn conn string string, sum_pair, fun t -> t.assoc_eq);
    Field (pair conn conn, sum, fun t -> t.assoc_count);
    Field (conn, sum, fun t -> t.outdeg_one);
    Field (conn, sum, fun t -> t.outdeg_excl);
    Field (triple string string string, sum_pair, fun t -> t.copath_pairs);
    Field (quad string string string string, sum_pair, fun t -> t.patheq);
    Field (quint string string value string direction_codec, max_sum, fun t -> t.deg_max);
    Field (triple string string string, sum_pair, fun t -> t.name_excl);
  ]

let merge_tables dst src =
  List.iter
    (fun (Field (_, m, get)) ->
      let into = get dst in
      Hashtbl.iter
        (fun k v ->
          Hashtbl.replace into k
            (match Hashtbl.find_opt into k with
            | None -> m.fresh v
            | Some v0 -> m.combine v0 v))
        (get src))
    fields;
  dst

(* [Codec.write_table] sorts rows by key, so equal tables encode to
   equal bytes regardless of merge history. *)
let write_tables b t =
  List.iter
    (fun (Field (key, m, get)) -> (Codec.table key m.value).Codec.write b (get t))
    fields

let read_tables s =
  let t = create () in
  List.iter
    (fun (Field (key, m, get)) ->
      Hashtbl.iter (Hashtbl.replace (get t)) ((Codec.table key m.value).Codec.read s))
    fields;
  t

(* ------------------------------------------------------------------ *)
(* Chunk-local interning                                               *)
(* ------------------------------------------------------------------ *)

(* Int-keyed tables for the interned counters below. *)
module Int_tbl = Hashtbl.Make (Int)

(* Dense ids for the keys of one chunk, in first-seen order. *)
type 'k ids = { index : ('k, int) Hashtbl.t; mutable keys : 'k array }

let new_ids () = { index = Hashtbl.create 256; keys = [||] }

let id_of ids k =
  match Hashtbl.find_opt ids.index k with
  | Some id -> id
  | None ->
      let id = Hashtbl.length ids.index in
      if id = Array.length ids.keys then
        ids.keys <- Array.append ids.keys (Array.make (max 64 id) k);
      ids.keys.(id) <- k;
      Hashtbl.add ids.index k id;
      id

(* Two ids as one int key. *)
let id_bits = 30
let id_mask = (1 lsl id_bits) - 1

let pack i j =
  if i lor j > id_mask then invalid_arg "Miner: more than 2^30 interned keys in one chunk";
  (i lsl id_bits) lor j

let unpack k = (k lsr id_bits, k land id_mask)

let bump counts k =
  match Int_tbl.find_opt counts k with
  | Some c -> incr c
  | None -> Int_tbl.add counts k (ref 1)

(* The hottest counters of one chunk, on int keys: every fact pair of
   a resource and every enum pair of an edge would otherwise hash a
   tuple of strings and values, twice. Ids are local to the chunk;
   [publish] writes each count back under its string key, so the
   [tables] a chunk returns are the same whatever ids it used. *)
type interned = {
  facts : (string * fact) ids;  (* (type, fact) of the intra families *)
  single : int ref Int_tbl.t;  (* fact id *)
  pair : int ref Int_tbl.t;  (* [pack] fact id, fact id *)
  conns : conn_key ids;
  values : (string * Value.t) ids;  (* (path, value) *)
  conds : int ids;  (* [pack] conn id, value id: a [cond2] key *)
  cond2 : int ref Int_tbl.t;  (* cond id *)
  both2 : int ref Int_tbl.t;  (* [pack] cond id, value id *)
  dstval : int ref Int_tbl.t;  (* [pack] conn id, value id *)
  srcval : int ref Int_tbl.t;  (* [pack] conn id, value id *)
}

let new_interned () =
  {
    facts = new_ids ();
    single = Int_tbl.create 1024;
    pair = Int_tbl.create 4096;
    conns = new_ids ();
    values = new_ids ();
    conds = new_ids ();
    cond2 = Int_tbl.create 512;
    both2 = Int_tbl.create 2048;
    dstval = Int_tbl.create 512;
    srcval = Int_tbl.create 512;
  }

let publish (it : interned) (t : tables) =
  let fact id = it.facts.keys.(id) and value id = it.values.keys.(id) in
  let conn_value k =
    let c, v = unpack k in
    let p, x = value v in
    (it.conns.keys.(c), p, x)
  in
  let cond id = conn_value it.conds.keys.(id) in
  let out into counts key = Int_tbl.iter (fun k n -> Hashtbl.replace into (key k) !n) counts in
  out t.single it.single fact;
  out t.pair it.pair (fun k ->
      let i, j = unpack k in
      let ty, f1 = fact i and _, f2 = fact j in
      (ty, f1, f2));
  out t.cond2 it.cond2 cond;
  out t.both2 it.both2 (fun k ->
      let c, v = unpack k in
      let conn, pa, va = cond c and pb, vb = value v in
      (conn, pa, va, pb, vb));
  out t.dstval it.dstval conn_value;
  out t.srcval it.srcval conn_value

(* ------------------------------------------------------------------ *)
(* Per-resource views                                                  *)
(* ------------------------------------------------------------------ *)

(* What a count needs to know about one (type, attribute path). [flat]:
   no prefix of the path is a repeated-block collection (those belong
   to the indexed family). [enums]: the KB's enum values (unused
   without the KB). [presence_ok]: the path may carry a presence fact.
   [name_like]: the KB gives it [Name_format]. *)
type path_info = { flat : bool; enums : Value.t list; presence_ok : bool; name_like : bool }

(* Per type: its path verdicts (memoised), its KB CIDR attributes and
   the KB-optional top-level attributes whose nulls CONN-DST-NULL
   counts. *)
type type_info = {
  schema : Schema.t option;
  paths : (string, path_info) Hashtbl.t;
  cidr_attrs : string list;
  optional : string list;
}

(* Everything one chunk's count reads besides the programs. The memos
   depend on the provider, the config and the KB, so a context lives
   for one chunk of one [count_tables] call and is never shared. *)
type ctx = {
  provider : Provider.t;
  cfg : config;
  kb : Kb.t;
  reserved_names : (string * string, int) Hashtbl.t;
  types : (string, type_info) Hashtbl.t;
  it : interned;
}

let type_info ctx rtype =
  match Hashtbl.find_opt ctx.types rtype with
  | Some ti -> ti
  | None ->
      let ti =
        {
          schema = ctx.provider.Provider.find_schema rtype;
          paths = Hashtbl.create 32;
          cidr_attrs = Kb.cidr_attrs ctx.kb rtype;
          optional =
            List.filter_map
              (fun (info : Kb.attr_info) ->
                if
                  info.Kb.requirement = Some Schema.Optional
                  && not (String.contains info.Kb.attr '.')
                then Some info.Kb.attr
                else None)
              (Kb.attrs_of_type ctx.kb rtype);
        }
      in
      Hashtbl.replace ctx.types rtype ti;
      ti

let path_info ctx rtype ti path =
  match Hashtbl.find_opt ti.paths path with
  | Some pi -> pi
  | None ->
      let flat =
        match ti.schema with
        | None -> true
        | Some s ->
            (* no prefix of the path names a list of blocks *)
            let rec check prefix = function
              | [] -> true
              | seg :: rest -> (
                  let p = prefix @ [ seg ] in
                  match Schema.find_attr s p with
                  | Some { Schema.atype = Schema.T_list (Schema.T_block _); _ } -> false
                  | _ -> check p rest)
            in
            check [] (Path.of_string path)
      in
      let info = Kb.attr_info ctx.kb ~rtype ~attr:path in
      let pi =
        {
          flat;
          enums = (if ctx.cfg.use_kb then Kb.enum_values ctx.kb ~rtype ~attr:path else []);
          presence_ok =
            (not ctx.cfg.use_kb)
            || (match info with
               | Some { Kb.requirement = Some Schema.Optional | None; _ } -> true
               | _ -> false);
          name_like =
            (match info with Some { Kb.format = Schema.Name_format; _ } -> true | _ -> false);
        }
      in
      Hashtbl.replace ti.paths path pi;
      pi

(* A value usable on the right of an [==] in a mined check. *)
let enum_ok ctx pi v = is_scalar v && ((not ctx.cfg.use_kb) || List.mem v pi.enums)

type scalar = { path : string; value : Value.t; name_like : bool }

(* The three CIDR readings the families use, parsed once: every CIDR
   the attribute holds (containment), its value when a plain string
   (sibling overlap), and its value or first list element (copath
   overlap). *)
type cidrs = { all : Cidr.t list; str : Cidr.t option; head : Cidr.t option }

(* One resource's facts, derived once per program; every family's loop
   reads them. *)
type view = {
  res : Resource.t;
  facts : fact array;  (* intra facts, grouped by path *)
  fact_ids : int array;  (* their interned (type, fact) ids *)
  fact_groups : int array;  (* equal iff the facts share a path *)
  numeric : (string * int) list;  (* flat paths holding exactly one int *)
  scalars : scalar list;  (* every path whose first value is scalar *)
  enums : (string * Value.t) list;  (* flat paths with an enum-ok first value *)
  enum_ids : int list;  (* their interned (path, value) ids *)
  reserved : string option;  (* the name, when the KB reserves it for the type *)
  cidrs : (string * cidrs) list;  (* per KB CIDR attribute, in [Kb.cidr_attrs] order *)
  nulls : string list;  (* KB-optional attributes that are null here *)
  reach : Resource.id list;  (* [Graph.reachable_from] *)
}

let cidrs_of r attr =
  let all =
    List.concat_map
      (function
        | Value.Str s -> Option.to_list (Cidr.of_string s)
        | Value.List items ->
            List.filter_map (function Value.Str s -> Cidr.of_string s | _ -> None) items
        | _ -> [])
      (Resource.get_all r attr)
  in
  match Resource.get r attr with
  | Value.Str s ->
      let c = Cidr.of_string s in
      { all; str = c; head = c }
  | Value.List (Value.Str s :: _) -> { all; str = None; head = Cidr.of_string s }
  | _ -> { all; str = None; head = None }

let view ctx graph r =
  let rtype = r.Resource.rtype in
  let ti = type_info ctx rtype in
  (* each path read once: its verdicts, first value and fanned-out values *)
  let paths =
    List.map
      (fun (l : Path.leaf) -> (l.path, path_info ctx rtype ti l.path, l.head, l.all))
      (Path.leaves r.Resource.attrs)
  in
  let flat = List.filter (fun (_, pi, _, _) -> pi.flat) paths in
  let grouped =
    List.mapi
      (fun g (path, pi, _, values) ->
        let val_facts =
          List.filter_map
            (fun v -> if enum_ok ctx pi v then Some (F_val (path, v)) else None)
            values
        in
        let present = if values <> [] && pi.presence_ok then [ F_present path ] else [] in
        let dedup xs =
          List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs
        in
        List.map (fun f -> (g, f)) (dedup (val_facts @ present)))
      flat
    |> List.concat |> Array.of_list
  in
  let facts = Array.map snd grouped in
  let enums =
    List.filter_map
      (fun (path, pi, v, _) -> if enum_ok ctx pi v then Some (path, v) else None)
      flat
  in
  let top a = Option.value ~default:Value.Null (Resource.attr r a) in
  {
    res = r;
    facts;
    fact_ids = Array.map (fun f -> id_of ctx.it.facts (rtype, f)) facts;
    fact_groups = Array.map fst grouped;
    numeric =
      List.filter_map
        (fun (path, _, _, values) ->
          match values with [ Value.Int i ] -> Some (path, i) | _ -> None)
        flat;
    scalars =
      List.filter_map
        (fun (path, (pi : path_info), value, _) ->
          if is_scalar value then Some { path; value; name_like = pi.name_like } else None)
        paths;
    enums;
    enum_ids = List.map (id_of ctx.it.values) enums;
    reserved =
      (match top "name" with
      | Value.Str s when Hashtbl.mem ctx.reserved_names (rtype, s) -> Some s
      | _ -> None);
    cidrs = List.map (fun attr -> (attr, cidrs_of r attr)) ti.cidr_attrs;
    nulls = List.filter (fun a -> Value.is_null (top a)) ti.optional;
    reach = Graph.reachable_from graph (Resource.id r);
  }

(* ------------------------------------------------------------------ *)
(* Counting                                                            *)
(* ------------------------------------------------------------------ *)

(* What [Path.get] reads at [path] when that is a scalar: a scalar is a
   leaf, so the view's [scalars] hold every such reading. *)
let scalar_at v path =
  List.find_map (fun s -> if String.equal s.path path then Some s.value else None) v.scalars

(* Intra-resource families: fact frequencies, fact co-occurrence and
   numeric ranges per resource type. *)
let count_intra it t v =
  let ty = v.res.Resource.rtype in
  incr_tbl t.n_by_type ty;
  let ids = v.fact_ids and groups = v.fact_groups in
  let n = Array.length ids in
  for i = 0 to n - 1 do
    bump it.single ids.(i);
    for j = 0 to n - 1 do
      if groups.(i) <> groups.(j) then bump it.pair (pack ids.(i) ids.(j))
    done
  done;
  (* numeric observations conditioned on each fact (and on the
     numeric attribute's own presence) *)
  List.iter
    (fun (npath, i) ->
      let update cond_fact =
        let key = (ty, cond_fact, npath) in
        let lo, hi, c =
          Option.value ~default:(i, i, 0) (Hashtbl.find_opt t.num_range key)
        in
        Hashtbl.replace t.num_range key (min lo i, max hi i, c + 1)
      in
      update (F_present npath);
      Array.iter
        (fun f ->
          match f with
          | F_val (a, _) when not (String.equal a npath) -> update f
          | F_val _ | F_present _ -> ())
        v.facts)
    v.numeric

(* Collection path -> element field lists, for every attribute holding a
   non-empty list of blocks. *)
let collections r =
  List.filter_map
    (fun (name, v) ->
      match v with
      | Value.List items
        when List.length items >= 1
             && List.for_all (function Value.Block _ -> true | _ -> false) items ->
          Some (name, List.map (function Value.Block f -> f | _ -> []) items)
      | _ -> None)
    r.Resource.attrs

(* Indexed family: distinctness of sub-attributes across the elements
   of one repeated block. *)
let count_indexed t r =
  let ty = r.Resource.rtype in
  List.iter
    (fun (coll, elems) ->
      let keys elem = List.filter (fun (_, v) -> is_scalar v || (match v with Value.Int _ -> true | _ -> false)) elem in
      List.iter
        (fun elem ->
          List.iter
            (fun (sub, v) ->
              let tbl =
                match Hashtbl.find_opt t.elem_values (ty, coll, sub) with
                | Some tbl -> tbl
                | None ->
                    let tbl = Hashtbl.create 8 in
                    Hashtbl.replace t.elem_values (ty, coll, sub) tbl;
                    tbl
              in
              incr_tbl tbl v)
            (keys elem))
        elems;
      List.iteri
        (fun i e1 ->
          List.iteri
            (fun j e2 ->
              if i <> j then begin
                let a1 = keys e1 and a2 = keys e2 in
                List.iter
                  (fun (sub, v1) ->
                    match List.assoc_opt sub a2 with
                    | None -> ()
                    | Some v2 ->
                        (* unconditional distinctness of sub *)
                        tally t.ne (ty, coll, sub) (not (Value.equal v1 v2));
                        (* conditioned on equality of sub, distinctness of others *)
                        if Value.equal v1 v2 then
                          List.iter
                            (fun (sub2, w1) ->
                              if not (String.equal sub2 sub) then
                                match List.assoc_opt sub2 a2 with
                                | None -> ()
                                | Some w2 ->
                                    tally t.eqne (ty, coll, sub, sub2)
                                      (not (Value.equal w1 w2)))
                            a1)
                  a1
              end)
            elems)
        elems)
    (collections r)

(* Inter-resource families over one program's reference graph and its
   resources' views. *)
let count_inter it t graph views =
  (* id -> view; the first resource of an id wins, as in [Program.find] *)
  let by_id = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let id = Resource.id v.res in
      if not (Hashtbl.mem by_id id) then Hashtbl.add by_id id v)
    views;
  let find id = Hashtbl.find_opt by_id id in
  let edges = Graph.edges graph in
  List.iter
    (fun (e : Graph.edge) ->
      match (find e.Graph.src, find e.Graph.dst) with
      | Some a, Some b ->
          let k =
            ( e.Graph.src.Resource.rtype,
              e.Graph.src_attr,
              e.Graph.dst.Resource.rtype,
              e.Graph.dst_attr )
          in
          incr_tbl t.edgecount k;
          (* equality join between a and b attributes *)
          let b_by_value = Hashtbl.create 16 in
          List.iter (fun s -> Hashtbl.add b_by_value s.value s.path) b.scalars;
          List.iter
            (fun sa ->
              List.iter
                (fun pb -> incr_tbl t.paireq (k, sa.path, pb))
                (Hashtbl.find_all b_by_value sa.value))
            a.scalars;
          let kid = id_of it.conns k in
          (* dst/src enum values *)
          List.iter (fun v -> bump it.dstval (pack kid v)) b.enum_ids;
          List.iter (fun v -> bump it.srcval (pack kid v)) a.enum_ids;
          (* reserved dst names *)
          Option.iter
            (fun s -> bump it.dstval (pack kid (id_of it.values ("name", Value.Str s))))
            b.reserved;
          (* dst null-ness of optional attrs known to the KB *)
          List.iter (fun attr -> incr_tbl t.dstnull (k, attr)) b.nulls;
          (* conditional: src enum -> dst enum *)
          List.iter
            (fun va ->
              let cond = id_of it.conds (pack kid va) in
              bump it.cond2 cond;
              List.iter (fun vb -> bump it.both2 (pack cond vb)) b.enum_ids)
            a.enum_ids;
          (* containment between CIDR attributes *)
          List.iter
            (fun (ca, (ca_c : cidrs)) ->
              List.iter
                (fun (cb, (cb_c : cidrs)) ->
                  if ca_c.all <> [] && cb_c.all <> [] then
                    tally t.containc (k, ca, cb)
                      (List.for_all
                         (fun x -> List.exists (fun y -> Cidr.contains y x) cb_c.all)
                         ca_c.all))
                b.cidrs)
            a.cidrs;
          (* aggregation facts per edge *)
          let same_ty = Graph.Type e.Graph.src.Resource.rtype in
          let od = Graph.outdegree graph e.Graph.dst same_ty in
          if od = 1 then incr_tbl t.outdeg_one k;
          let od_other =
            Graph.outdegree graph e.Graph.dst
              (Graph.Not_type e.Graph.src.Resource.rtype)
          in
          if od_other = 0 then incr_tbl t.outdeg_excl k
      | _ -> ())
    edges;
  (* sibling analysis: group in-edges per (dst resource, kind) *)
  let sib_groups = Hashtbl.create 16 in
  List.iter
    (fun (e : Graph.edge) ->
      let k =
        ( e.Graph.src.Resource.rtype,
          e.Graph.src_attr,
          e.Graph.dst.Resource.rtype,
          e.Graph.dst_attr )
      in
      Hashtbl.replace sib_groups
        (e.Graph.dst, k)
        (e.Graph.src
        :: Option.value ~default:[] (Hashtbl.find_opt sib_groups (e.Graph.dst, k))))
    edges;
  Hashtbl.iter
    (fun ((_dst : Resource.id), (k : conn_key)) srcs ->
      let siblings = List.filter_map find srcs in
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b ->
              if i < j then begin
                incr_tbl t.sibcount k;
                (* CIDR disjointness; siblings share a type, so their
                   CIDR attributes line up *)
                List.iter2
                  (fun (cattr, (c1 : cidrs)) (_, (c2 : cidrs)) ->
                    match (c1.str, c2.str) with
                    | Some c1, Some c2 ->
                        tally t.sib_nooverlap (k, cattr) (not (Cidr.overlap c1 c2))
                    | _ -> ())
                  a.cidrs b.cidrs;
                (* attribute distinctness *)
                List.iter
                  (fun sa ->
                    match scalar_at b sa.path with
                    | Some vb -> tally t.sib_ne (k, sa.path) (not (Value.equal sa.value vb))
                    | None -> ())
                  a.scalars
              end)
            siblings)
        siblings)
    sib_groups;
  (* association analysis: resources with two outgoing reference kinds *)
  List.iter
    (fun c ->
      let outs = Graph.edges_from graph (Resource.id c.res) in
      List.iter
        (fun (e1 : Graph.edge) ->
          List.iter
            (fun (e2 : Graph.edge) ->
              if
                not (String.equal e1.Graph.src_attr e2.Graph.src_attr)
                && not (Resource.equal_id e1.Graph.dst e2.Graph.dst)
              then begin
                let ty = c.res.Resource.rtype in
                let k1 = (ty, e1.Graph.src_attr, e1.Graph.dst.Resource.rtype, e1.Graph.dst_attr)
                and k2 = (ty, e2.Graph.src_attr, e2.Graph.dst.Resource.rtype, e2.Graph.dst_attr) in
                incr_tbl t.assoc_count (k1, k2);
                match (find e1.Graph.dst, find e2.Graph.dst) with
                | Some a, Some b ->
                    (* compare attributes that share a path or are
                       name-formatted on both sides *)
                    List.iter
                      (fun sa ->
                        List.iter
                          (fun sb ->
                            if String.equal sa.path sb.path || (sa.name_like && sb.name_like)
                            then
                              tally t.assoc_eq (k1, k2, sa.path, sb.path)
                                (Value.equal sa.value sb.value))
                          b.scalars)
                      a.scalars
                | _ -> ()
              end)
            outs)
        outs)
    views;
  (* path-based attribute agreement: reachable pairs with matching
     scalar attributes (e.g. NIC and VPC two hops apart agreeing on
     location) *)
  List.iter
    (fun v1 ->
      let ty1 = v1.res.Resource.rtype in
      List.iter
        (fun (id2 : Resource.id) ->
          if not (String.equal ty1 id2.Resource.rtype) then
            match find id2 with
            | None -> ()
            | Some v2 ->
                (* compare attributes sharing a dotted path; the shared
                   name keeps the family small and meaningful *)
                List.iter
                  (fun sa ->
                    match scalar_at v2 sa.path with
                    | Some vb ->
                        tally t.patheq
                          (ty1, id2.Resource.rtype, sa.path, sa.path)
                          (Value.equal sa.value vb)
                    | None -> ())
                  v1.scalars)
        v1.reach)
    views;
  (* copath overlap: resources reaching two same-type CIDR-bearing nodes *)
  List.iter
    (fun v ->
      List.iteri
        (fun i (id1 : Resource.id) ->
          List.iteri
            (fun j (id2 : Resource.id) ->
              if i < j && String.equal id1.Resource.rtype id2.Resource.rtype then
                match (find id1, find id2) with
                | Some v1, Some v2 ->
                    List.iter2
                      (fun (cattr, (c1 : cidrs)) (_, (c2 : cidrs)) ->
                        match (c1.head, c2.head) with
                        | Some c1, Some c2 ->
                            tally t.copath_pairs
                              (v.res.Resource.rtype, id1.Resource.rtype, cattr)
                              (not (Cidr.overlap c1 c2))
                        | _ -> ())
                      v1.cidrs v2.cidrs
                | _ -> ())
            v.reach)
        v.reach)
    views;
  (* degree maxima conditioned on enum attributes *)
  List.iter
    (fun v ->
      let ty = v.res.Resource.rtype and id = Resource.id v.res in
      let degrees dir degree peers =
        List.map
          (fun tau -> (tau, dir, degree graph id (Graph.Type tau)))
          (List.sort_uniq String.compare peers)
      in
      let observed =
        degrees `In Graph.indegree
          (List.map (fun (e : Graph.edge) -> e.Graph.dst.Resource.rtype) (Graph.edges_from graph id))
        @ degrees `Out Graph.outdegree
            (List.map (fun (e : Graph.edge) -> e.Graph.src.Resource.rtype) (Graph.edges_to graph id))
      in
      List.iter
        (fun (p, value) ->
          List.iter
            (fun (tau, dir, d) ->
              let key = (ty, p, value, tau, dir) in
              let hi, c = Option.value ~default:(d, 0) (Hashtbl.find_opt t.deg_max key) in
              Hashtbl.replace t.deg_max key (max hi d, c + 1))
            observed)
        v.enums)
    views;
  (* reserved names exclusivity *)
  List.iter
    (fun v ->
      Option.iter
        (fun s ->
          let ty = v.res.Resource.rtype and id = Resource.id v.res in
          let referrers =
            List.map (fun (e : Graph.edge) -> e.Graph.src.Resource.rtype) (Graph.edges_to graph id)
          in
          List.iter
            (fun tau ->
              tally t.name_excl (ty, s, tau) (Graph.outdegree graph id (Graph.Not_type tau) = 0))
            (List.sort_uniq String.compare referrers))
        v.reserved)
    views

(* Reserved-name candidates are a pure function of the finalized KB —
   fixed before any inter counting starts, and shared read-only across
   shards (streamed or parallel). *)
let reserved_names_of kb =
  let reserved_names : (string * string, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun ty ->
      match Kb.attr_info kb ~rtype:ty ~attr:"name" with
      | None -> ()
      | Some info ->
          List.iter
            (fun (v, c) ->
              match v with
              | Value.Str s when c >= 5 -> Hashtbl.replace reserved_names (ty, s) c
              | _ -> ())
            info.Kb.observed)
    (Kb.types kb);
  reserved_names

(* One pass per chunk counts every family into one [tables]: each
   program's views are derived once, the [interned] counters are
   published under their string keys when the chunk is done, and the
   chunks' tables merge in chunk order. *)
let count_tables ~provider ?jobs config kb programs =
  let reserved_names = reserved_names_of kb in
  let count chunk =
    let t = create () in
    let it = new_interned () in
    let ctx = { provider; cfg = config; kb; reserved_names; types = Hashtbl.create 64; it } in
    List.iter
      (fun prog ->
        let graph = Graph.build prog in
        let views = List.map (view ctx graph) (Program.resources prog) in
        List.iter
          (fun v ->
            count_intra it t v;
            count_indexed t v.res)
          views;
        count_inter it t graph views)
      chunk;
    publish it t;
    t
  in
  match Parallel.map_chunks ?jobs count programs with
  | [] -> create ()
  | first :: rest -> List.fold_left merge_tables first rest

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

(* Candidate emission from final merged tables. Emission is a pure
   function of (config, KB, counts): iteration order over the hash
   tables may vary with how the counts were sharded and merged, but the
   emitted multiset does not, and [Candidate.dedup]'s total preference
   order makes the downstream artifact independent of it — the same
   argument that already covers [jobs]-invariance covers shard-boundary
   invariance. *)
let emit_intra cfg kb { n_by_type; single; pair; num_range; _ } =
  let out = ref [] in
  let emit c = out := c :: !out in
  let fact_stmt_prior ty = function
    | F_val (attr, v) -> value_prior kb ty attr v
    | F_present attr -> presence_prior kb ty attr
  in
  (* positive implications from witnessed pairs *)
  Hashtbl.iter
    (fun (ty, f1, f2) c ->
      let support = get_count single (ty, f1) in
      if support >= cfg.min_support then begin
        let conf = float_of_int c /. float_of_int support in
        let prior = fact_stmt_prior ty f2 in
        let template_id =
          match (f1, f2) with
          | F_val _, F_val _ -> "INTRA-EQ-EQ"
          | F_val _, F_present _ -> "INTRA-EQ-NOTNULL"
          | F_present _, F_val _ -> "INTRA-NOTNULL-EQ"
          | F_present _, F_present _ -> "INTRA-NOTNULL-NOTNULL"
        in
        emit
          (Candidate.make ~template_id ~support ~confidence:conf
             ~lift:(lift_of conf prior)
             (intra_check ty (fact_cond "r" f1) (fact_cond "r" f2)))
      end)
    pair;
  (* negative implications: X => Y != v / Y == null, emitted when the
     co-occurrence is (nearly) absent yet Y=v (resp. Y present) is
     globally common. *)
  let singles_by_type : (string, fact list) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (ty, f) _ ->
      Hashtbl.replace singles_by_type ty
        (f :: Option.value ~default:[] (Hashtbl.find_opt singles_by_type ty)))
    single;
  Hashtbl.iter
    (fun (ty, f1) support ->
      if support >= cfg.min_support then
        let n = float_of_int (get_count n_by_type ty) in
        List.iter
          (fun f2 ->
            let attr_of = function F_val (a, _) | F_present a -> a in
            if not (String.equal (attr_of f1) (attr_of f2)) then begin
              let co = get_count pair (ty, f1, f2) in
              let conf = 1.0 -. (float_of_int co /. float_of_int support) in
              let global = float_of_int (get_count single (ty, f2)) /. Float.max n 1.0 in
              (* only interesting when Y is otherwise common *)
              if conf >= 0.95 && global >= 0.05 then
                match f2 with
                | F_val (attr, v) ->
                    let prior = 1.0 -. value_prior kb ty attr v in
                    emit
                      (Candidate.make ~template_id:"INTRA-EQ-NE" ~support
                         ~confidence:conf ~lift:(lift_of conf prior)
                         (intra_check ty (fact_cond "r" f1)
                            (Check.Cmp (Check.Ne, attr_term "r" attr, Check.Const v))))
                | F_present attr ->
                    let prior = 1.0 -. presence_prior kb ty attr in
                    emit
                      (Candidate.make ~template_id:"INTRA-EQ-NULL" ~support
                         ~confidence:conf ~lift:(lift_of conf prior)
                         (intra_check ty (fact_cond "r" f1)
                            (Check.Cmp (Check.Eq, attr_term "r" attr, Check.Const Value.Null))))
            end)
          (Option.value ~default:[] (Hashtbl.find_opt singles_by_type ty)))
    single;
  (* quantitative ranges -> interpolation candidates *)
  Hashtbl.iter
    (fun (ty, f, npath) (lo, hi, c) ->
      if c >= cfg.min_support then begin
        let template_le, template_ge =
          match f with
          | F_val _ -> ("ENUM-NUM-LE", "ENUM-NUM-GE")
          | F_present _ -> ("PRESENT-NUM-LE", "PRESENT-NUM-GE")
        in
        let mk template op bound =
          Candidate.make ~needs_interpolation:true ~template_id:template ~support:c
            ~confidence:1.0 ~lift:1.0
            (intra_check ty (fact_cond "r" f)
               (Check.Cmp (op, attr_term "r" npath, Check.Const (Value.Int bound))))
        in
        (* Only bounded ranges are plausible constraints. *)
        if hi < 1_000_000 then emit (mk template_le Check.Le hi);
        if lo > 0 then emit (mk template_ge Check.Ge lo)
      end)
    num_range;
  !out

let emit_indexed cfg { eqne; ne; elem_values; _ } =
  let distinct_prior tbl =
    (* probability two random elements differ, from the value table;
       summed in sorted-value order so the float result is independent
       of the merged table's insertion order *)
    let counts =
      Hashtbl.fold (fun v c acc -> (v, c) :: acc) tbl []
      |> List.sort (fun (v1, _) (v2, _) -> Value.compare v1 v2)
    in
    let total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
    if total = 0 then 0.5
    else
      1.0
      -. List.fold_left
           (fun acc (_, c) ->
             let p = float_of_int c /. float_of_int total in
             acc +. (p *. p))
           0.0 counts
  in
  let out = ref [] in
  Hashtbl.iter
    (fun (ty, coll, sub, sub2) (p, d) ->
      if p >= cfg.min_support then begin
        let conf = float_of_int d /. float_of_int p in
        let prior =
          match Hashtbl.find_opt elem_values (ty, coll, sub2) with
          | Some tbl -> distinct_prior tbl
          | None -> 0.5
        in
        let ep path = attr_term "r" path in
        let check =
          intra_check ty
            (Check.Cmp
               ( Check.Eq,
                 ep (Printf.sprintf "%s[i].%s" coll sub),
                 ep (Printf.sprintf "%s[j].%s" coll sub) ))
            (Check.Cmp
               ( Check.Ne,
                 ep (Printf.sprintf "%s[i].%s" coll sub2),
                 ep (Printf.sprintf "%s[j].%s" coll sub2) ))
        in
        out :=
          Candidate.make ~template_id:"IDX-EQ-NE" ~support:p ~confidence:conf
            ~lift:(lift_of conf prior) check
          :: !out
      end)
    eqne;
  Hashtbl.iter
    (fun (ty, coll, sub) (p, d) ->
      if p >= cfg.min_support then begin
        let conf = float_of_int d /. float_of_int p in
        let prior =
          match Hashtbl.find_opt elem_values (ty, coll, sub) with
          | Some tbl -> distinct_prior tbl
          | None -> 0.5
        in
        let ep path = attr_term "r" path in
        let check =
          intra_check ty
            (Check.Cmp
               ( Check.Ne,
                 ep (Printf.sprintf "%s[i].%s" coll sub),
                 Check.Const Value.Null ))
            (Check.Cmp
               ( Check.Ne,
                 ep (Printf.sprintf "%s[i].%s" coll sub),
                 ep (Printf.sprintf "%s[j].%s" coll sub) ))
        in
        out :=
          Candidate.make ~template_id:"IDX-NE" ~support:p ~confidence:conf
            ~lift:(lift_of conf prior) check
          :: !out
      end)
    ne;
  !out

let emit_inter cfg kb
    {
      edgecount;
      paireq;
      dstval;
      srcval;
      dstnull;
      cond2;
      both2;
      containc;
      sibcount;
      sib_nooverlap;
      sib_ne;
      assoc_eq;
      assoc_count;
      outdeg_one;
      outdeg_excl;
      copath_pairs;
      patheq;
      deg_max;
      name_excl;
      _;
    } =
  let out = ref [] in
  let emit c = out := c :: !out in
  let conn_cond k =
    let src_ty, src_attr, dst_ty, dst_attr = k in
    let bindings =
      [ { Check.var = "r1"; btype = src_ty }; { Check.var = "r2"; btype = dst_ty } ]
    in
    ( bindings,
      Check.Conn ({ Check.var = "r1"; attr = src_attr }, { Check.var = "r2"; attr = dst_attr })
    )
  in
  Hashtbl.iter
    (fun ((k, pa, pb) : conn_key * string * string) c ->
      let support = get_count edgecount k in
      if support >= cfg.min_support then begin
        let src_ty, _, dst_ty, dst_attr = k in
        (* skip the tautological reference equality itself *)
        if not (String.equal pb dst_attr) then begin
          let conf = float_of_int c /. float_of_int support in
          let prior = eq_baseline kb (src_ty, pa) (dst_ty, pb) in
          let bindings, cond = conn_cond k in
          emit
            (Candidate.make ~template_id:"CONN-ATTR-EQ" ~support ~confidence:conf
               ~lift:(lift_of conf prior)
               (Check.make ~source:Check.Mined bindings cond
                  (Check.Cmp (Check.Eq, attr_term "r1" pa, attr_term "r2" pb))))
        end
      end)
    paireq;
  Hashtbl.iter
    (fun (k, p, v) c ->
      let support = get_count edgecount k in
      if support >= cfg.min_support then begin
        let _, _, dst_ty, _ = k in
        let conf = float_of_int c /. float_of_int support in
        let prior = value_prior kb dst_ty p v in
        let bindings, cond = conn_cond k in
        emit
          (Candidate.make ~template_id:"CONN-DST-EQ" ~support ~confidence:conf
             ~lift:(lift_of conf prior)
             (Check.make ~source:Check.Mined bindings cond
                (Check.Cmp (Check.Eq, attr_term "r2" p, Check.Const v))))
      end)
    dstval;
  Hashtbl.iter
    (fun (k, p, v) c ->
      let support = get_count edgecount k in
      if support >= cfg.min_support then begin
        let src_ty, _, _, _ = k in
        let conf = float_of_int c /. float_of_int support in
        let prior = value_prior kb src_ty p v in
        let bindings, cond = conn_cond k in
        emit
          (Candidate.make ~template_id:"CONN-SRC-EQ" ~support ~confidence:conf
             ~lift:(lift_of conf prior)
             (Check.make ~source:Check.Mined bindings cond
                (Check.Cmp (Check.Eq, attr_term "r1" p, Check.Const v))))
      end)
    srcval;
  Hashtbl.iter
    (fun (k, p) c ->
      let support = get_count edgecount k in
      if support >= cfg.min_support then begin
        let _, _, dst_ty, _ = k in
        let conf = float_of_int c /. float_of_int support in
        let prior = 1.0 -. presence_prior kb dst_ty p in
        let bindings, cond = conn_cond k in
        emit
          (Candidate.make ~template_id:"CONN-DST-NULL" ~support ~confidence:conf
             ~lift:(lift_of conf prior)
             (Check.make ~source:Check.Mined bindings cond
                (Check.Cmp (Check.Eq, attr_term "r2" p, Check.Const Value.Null))))
      end)
    dstnull;
  Hashtbl.iter
    (fun (k, pa, va, pb, vb) c ->
      let support = get_count cond2 (k, pa, va) in
      if support >= cfg.min_support then begin
        let _, _, dst_ty, _ = k in
        let conf = float_of_int c /. float_of_int support in
        let prior = value_prior kb dst_ty pb vb in
        let bindings, cond = conn_cond k in
        emit
          (Candidate.make ~template_id:"CONN-COND-DST-EQ" ~support ~confidence:conf
             ~lift:(lift_of conf prior)
             (Check.make ~source:Check.Mined bindings
                (Check.And
                   [ cond; Check.Cmp (Check.Eq, attr_term "r1" pa, Check.Const va) ])
                (Check.Cmp (Check.Eq, attr_term "r2" pb, Check.Const vb))))
      end)
    both2;
  Hashtbl.iter
    (fun (k, ca, cb) (d, s) ->
      if d >= cfg.min_support then begin
        let conf = float_of_int s /. float_of_int d in
        let bindings, cond = conn_cond k in
        emit
          (Candidate.make ~template_id:"CONN-CONTAIN" ~support:d ~confidence:conf
             ~lift:(lift_of conf 0.5)
             (Check.make ~source:Check.Mined bindings cond
                (Check.Func (Check.Contain, attr_term "r2" cb, attr_term "r1" ca)))
          )
      end)
    containc;
  Hashtbl.iter
    (fun (k, cattr) (d, s) ->
      if d >= cfg.min_support then begin
        let src_ty, src_attr, dst_ty, dst_attr = k in
        let conf = float_of_int s /. float_of_int d in
        let bindings =
          [
            { Check.var = "r1"; btype = src_ty };
            { Check.var = "r2"; btype = src_ty };
            { Check.var = "r3"; btype = dst_ty };
          ]
        in
        let cond =
          Check.Coconn
            ( ({ Check.var = "r1"; attr = src_attr }, { Check.var = "r3"; attr = dst_attr }),
              ({ Check.var = "r2"; attr = src_attr }, { Check.var = "r3"; attr = dst_attr })
            )
        in
        emit
          (Candidate.make ~template_id:"SIBLING-OVERLAP"
             ~support:(get_count sibcount k) ~confidence:conf ~lift:(lift_of conf 0.5)
             (Check.make ~source:Check.Mined bindings cond
                (Check.Not (Check.Func (Check.Overlap, attr_term "r1" cattr, attr_term "r2" cattr)))))
      end)
    sib_nooverlap;
  Hashtbl.iter
    (fun (k, p) (d, s) ->
      if d >= cfg.min_support then begin
        let src_ty, src_attr, dst_ty, dst_attr = k in
        let conf = float_of_int s /. float_of_int d in
        let prior = 1.0 -. eq_baseline kb (src_ty, p) (src_ty, p) in
        if conf >= 0.8 then begin
          let bindings =
            [
              { Check.var = "r1"; btype = src_ty };
              { Check.var = "r2"; btype = src_ty };
              { Check.var = "r3"; btype = dst_ty };
            ]
          in
          let cond =
            Check.Coconn
              ( ({ Check.var = "r1"; attr = src_attr }, { Check.var = "r3"; attr = dst_attr }),
                ({ Check.var = "r2"; attr = src_attr }, { Check.var = "r3"; attr = dst_attr })
              )
          in
          emit
            (Candidate.make ~template_id:"SIBLING-NE" ~support:d ~confidence:conf
               ~lift:(lift_of conf prior)
               (Check.make ~source:Check.Mined bindings cond
                  (Check.Cmp (Check.Ne, attr_term "r1" p, attr_term "r2" p))))
        end
      end)
    sib_ne;
  Hashtbl.iter
    (fun (k1, k2, pa, pb) (d, s) ->
      let support = get_count assoc_count (k1, k2) in
      if support >= cfg.min_support && d >= cfg.min_support then begin
        let c_ty, attr1, a_ty, dst1 = k1 in
        let _, attr2, b_ty, dst2 = k2 in
        let bindings =
          [
            { Check.var = "r3"; btype = c_ty };
            { Check.var = "r1"; btype = a_ty };
            { Check.var = "r2"; btype = b_ty };
          ]
        in
        let cond =
          Check.Coconn
            ( ({ Check.var = "r3"; attr = attr1 }, { Check.var = "r1"; attr = dst1 }),
              ({ Check.var = "r3"; attr = attr2 }, { Check.var = "r2"; attr = dst2 }) )
        in
        let conf_eq = float_of_int s /. float_of_int d in
        let prior_eq = eq_baseline kb (a_ty, pa) (b_ty, pb) in
        if conf_eq >= 0.8 then
          emit
            (Candidate.make ~template_id:"ASSOC-ATTR-EQ" ~support:d ~confidence:conf_eq
               ~lift:(lift_of conf_eq prior_eq)
               (Check.make ~source:Check.Mined bindings cond
                  (Check.Cmp (Check.Eq, attr_term "r1" pa, attr_term "r2" pb))));
        let conf_ne = 1.0 -. conf_eq in
        if conf_ne >= 0.8 then
          emit
            (Candidate.make ~template_id:"ASSOC-ATTR-NE" ~support:d ~confidence:conf_ne
               ~lift:(lift_of conf_ne (1.0 -. prior_eq))
               (Check.make ~source:Check.Mined bindings cond
                  (Check.Cmp (Check.Ne, attr_term "r1" pa, attr_term "r2" pb))))
      end)
    assoc_eq;
  Hashtbl.iter
    (fun (t_ty, v_ty, cattr) (d, s) ->
      if d >= cfg.min_support then begin
        let conf = float_of_int s /. float_of_int d in
        let bindings =
          [
            { Check.var = "r1"; btype = t_ty };
            { Check.var = "r2"; btype = v_ty };
            { Check.var = "r3"; btype = v_ty };
          ]
        in
        let cond = Check.Copath (("r1", "r2"), ("r1", "r3")) in
        emit
          (Candidate.make ~template_id:"COPATH-OVERLAP" ~support:d ~confidence:conf
             ~lift:(lift_of conf 0.5)
             (Check.make ~source:Check.Mined bindings cond
                (Check.Not
                   (Check.Func (Check.Overlap, attr_term "r2" cattr, attr_term "r3" cattr)))))
      end)
    copath_pairs;
  Hashtbl.iter
    (fun k c ->
      let support = get_count edgecount k in
      if support >= cfg.min_support then begin
        let src_ty, _, _, _ = k in
        let conf = float_of_int c /. float_of_int support in
        let bindings, cond = conn_cond k in
        emit
          (Candidate.make ~template_id:"CONN-OUTDEG-ONE" ~support ~confidence:conf
             ~lift:(lift_of conf 0.7)
             (Check.make ~source:Check.Mined bindings cond
                (Check.Cmp
                   ( Check.Eq,
                     Check.Outdeg ("r2", Graph.Type src_ty),
                     Check.Const (Value.Int 1) ))))
      end)
    outdeg_one;
  Hashtbl.iter
    (fun k c ->
      let support = get_count edgecount k in
      if support >= cfg.min_support then begin
        let src_ty, _, _, _ = k in
        let conf = float_of_int c /. float_of_int support in
        let bindings, cond = conn_cond k in
        emit
          (Candidate.make ~template_id:"CONN-OUTDEG-EXCL" ~support ~confidence:conf
             ~lift:(lift_of conf 0.7)
             (Check.make ~source:Check.Mined bindings cond
                (Check.Cmp
                   ( Check.Eq,
                     Check.Outdeg ("r2", Graph.Not_type src_ty),
                     Check.Const (Value.Int 0) ))))
      end)
    outdeg_excl;
  Hashtbl.iter
    (fun (src_ty, dst_ty, pa, pb) (d, e) ->
      if d >= cfg.min_support && not (String.equal pa "name") then begin
        let conf = float_of_int e /. float_of_int d in
        let prior = eq_baseline kb (src_ty, pa) (dst_ty, pb) in
        let bindings =
          [ { Check.var = "r1"; btype = src_ty }; { Check.var = "r2"; btype = dst_ty } ]
        in
        emit
          (Candidate.make ~template_id:"PATH-ATTR-EQ" ~support:d ~confidence:conf
             ~lift:(lift_of conf prior)
             (Check.make ~source:Check.Mined bindings
                (Check.Path ("r1", "r2"))
                (Check.Cmp (Check.Eq, attr_term "r1" pa, attr_term "r2" pb))))
      end)
    patheq;
  Hashtbl.iter
    (fun (ty, name, tau) (d, s) ->
      if d >= cfg.min_support then begin
        let conf = float_of_int s /. float_of_int d in
        emit
          (Candidate.make ~template_id:"NAME-OUTDEG-EXCL" ~support:d ~confidence:conf
             ~lift:(lift_of conf 0.5)
             (intra_check ty
                (Check.Cmp (Check.Eq, attr_term "r" "name", Check.Const (Value.Str name)))
                (Check.Cmp
                   ( Check.Eq,
                     Check.Outdeg ("r", Graph.Not_type tau),
                     Check.Const (Value.Int 0) ))))
      end)
    name_excl;
  Hashtbl.iter
    (fun (ty, p, v, tau, dir) (hi, c) ->
      if c >= cfg.min_support && hi >= 1 then begin
        let template_id, term =
          match dir with
          | `In -> ("ENUM-INDEG-LE", Check.Indeg ("r", Graph.Type tau))
          | `Out -> ("ENUM-OUTDEG-LE", Check.Outdeg ("r", Graph.Type tau))
        in
        emit
          (Candidate.make ~needs_interpolation:true ~template_id ~support:c
             ~confidence:1.0 ~lift:1.0
             (intra_check ty
                (Check.Cmp (Check.Eq, attr_term "r" p, Check.Const v))
                (Check.Cmp (Check.Le, term, Check.Const (Value.Int hi)))))
      end)
    deg_max;
  !out

let emit_tables config kb t =
  Candidate.dedup
    (emit_intra config kb t @ emit_indexed config t @ emit_inter config kb t)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let materialize ~provider ?jobs programs =
  Parallel.map ?jobs
    (fun p ->
      Program.of_resources
        (List.map (Defaults.effective provider) (Program.resources p)))
    programs

let count_corpus ~provider ?jobs config kb programs =
  count_tables ~provider ?jobs config kb (materialize ~provider ?jobs programs)

let mine ~provider ?(config = default_config) ?jobs kb programs =
  emit_tables config kb (count_corpus ~provider ?jobs config kb programs)

let intra_counts_by_type ~provider ?jobs ~use_kb kb programs =
  let config = { default_config with use_kb } in
  let t = count_corpus ~provider ?jobs config kb programs in
  let candidates = Candidate.dedup (emit_intra config kb t @ emit_indexed config t) in
  let by_type = Hashtbl.create 64 in
  List.iter
    (fun (c : Candidate.t) ->
      match c.Candidate.check.Check.bindings with
      | [ { Check.btype; _ } ] -> incr_tbl by_type btype
      | _ -> ())
    candidates;
  List.filter_map
    (fun ty ->
      match provider.Provider.find_schema ty with
      | None -> None
      | Some schema ->
          Some (ty, Schema.attr_count schema, get_count by_type ty))
    (Kb.types kb)

