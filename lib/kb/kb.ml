module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Graph = Zodiac_iac.Graph
module Schema = Zodiac_iac.Schema
module Provider = Zodiac_provider.Provider
module Cidr = Zodiac_util.Cidr
module Parallel = Zodiac_util.Parallel

type attr_info = {
  rtype : string;
  attr : string;
  requirement : Schema.requirement option;
  format : Schema.format;
  observed : (Value.t * int) list;
  observed_index : (Value.t, int) Hashtbl.t;
  observed_total : int;
  enum_values : Value.t list;
  default : Value.t option;
  occurrences : int;
}

type conn_kind = {
  src_type : string;
  src_attr : string;
  dst_type : string;
  dst_attr : string;
  count : int;
}

type t = {
  entries : (string * string, attr_info) Hashtbl.t;  (* key: (rtype, attr) *)
  conns : conn_kind list;
  known_types : string list;
  populations : (string, int) Hashtbl.t;  (* resources per type *)
}

(* An attribute is enum-like when its observed value set is small,
   string-typed and well-supported — or when the schema declares an
   enum outright. *)
let max_enum_cardinality = 12
let min_enum_support = 4

(* Values worth keeping in the observation table: scalars only. *)
let observable = function
  | Value.Str _ | Value.Int _ | Value.Bool _ -> true
  | Value.Null | Value.List _ | Value.Block _ | Value.Ref _ -> false

let bump tbl k n =
  Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* Observation tables are bounded: each (rtype, attr) tracks at most
   [max_observed_values] distinct values, keeping the canonically
   smallest ones. Attributes whose values are instance-unique (generated
   names, secrets, per-resource prefixes) would otherwise grow the KB
   linearly with the corpus and defeat bounded-memory streaming; real
   vocabularies saturate far below the cap, and every corpus small
   enough that no attribute crosses it produces byte-identical stats —
   with the generator's densest attribute (subnet names) that holds
   through ~2000-project corpora, comfortably past the 1200 default. *)
let max_observed_values = 2048

let value_is_cidr = function
  | Value.Str s -> Cidr.of_string s <> None
  | _ -> false

(* Per-attribute value counts plus an exact residue for evicted mass.
   [evicted_all_cidr] is the AND over evicted values' CIDR-ness
   (vacuously true while nothing is evicted), so CIDR-format inference
   stays faithful past the cap. *)
type obs = {
  values : (Value.t, int) Hashtbl.t;
  mutable evicted : int;
  mutable evicted_all_cidr : bool;
}

let new_obs () =
  { values = Hashtbl.create 8; evicted = 0; evicted_all_cidr = true }

(* Evict down to [max_observed_values], dropping the canonically largest
   values. Keeping the K smallest is what makes the cap grouping
   invariant: a value among the K smallest of the whole corpus is among
   the K smallest of every sub-table containing it, so no intermediate
   eviction ever loses one of its occurrences — kept counts are exact
   sums and the evicted mass is conserved, whatever the shard size. *)
let cap_obs o =
  if Hashtbl.length o.values > max_observed_values then begin
    let keys = Hashtbl.fold (fun v _ acc -> v :: acc) o.values [] in
    List.sort Value.compare keys
    |> List.filteri (fun i _ -> i >= max_observed_values)
    |> List.iter (fun v ->
           o.evicted <- o.evicted + Hashtbl.find o.values v;
           o.evicted_all_cidr <- o.evicted_all_cidr && value_is_cidr v;
           Hashtbl.remove o.values v)
  end

(* One shard of corpus statistics: private tables for a contiguous slice of
   projects, built with no shared state so shards can run on any domain. *)
type shard = {
  s_observations : (string * string, obs) Hashtbl.t;
  s_presence : (string * string, int) Hashtbl.t;
  s_conns : (string * string * string * string, int) Hashtbl.t;
  s_populations : (string, int) Hashtbl.t;
}

let build_shard projects =
  let s =
    {
      s_observations = Hashtbl.create 512;
      s_presence = Hashtbl.create 512;
      s_conns = Hashtbl.create 128;
      s_populations = Hashtbl.create 64;
    }
  in
  let observe_value rtype path v =
    if observable v then begin
      let k = (rtype, path) in
      let o =
        match Hashtbl.find_opt s.s_observations k with
        | Some o -> o
        | None ->
            let o = new_obs () in
            Hashtbl.replace s.s_observations k o;
            o
      in
      bump o.values v 1;
      (* Amortized: let the table overshoot to 2x the cap before the
         O(n log n) eviction pass; the exact cap is restored below. *)
      if Hashtbl.length o.values > 2 * max_observed_values then cap_obs o
    end
  in
  let observe_resource r =
    let rtype = r.Resource.rtype in
    bump s.s_populations rtype 1;
    List.iter
      (fun path ->
        bump s.s_presence (rtype, path) 1;
        List.iter (observe_value rtype path) (Resource.get_all r path))
      (Resource.attr_paths r)
  in
  List.iter
    (fun prog ->
      List.iter observe_resource (Program.resources prog);
      let graph = Graph.build prog in
      List.iter
        (fun (e : Graph.edge) ->
          bump s.s_conns
            ( e.Graph.src.Resource.rtype,
              e.Graph.src_attr,
              e.Graph.dst.Resource.rtype,
              e.Graph.dst_attr )
            1)
        (Graph.edges graph))
    projects;
  Hashtbl.iter (fun _ o -> cap_obs o) s.s_observations;
  s

(* Merge [src] into [dst], adding counts. Count merges are exact integer
   additions, so the merged totals are independent of the chunking; any
   residual Hashtbl iteration-order differences are erased downstream by
   canonical sorts. *)
let merge_shard dst src =
  Hashtbl.iter (fun k n -> bump dst.s_presence k n) src.s_presence;
  Hashtbl.iter (fun k n -> bump dst.s_conns k n) src.s_conns;
  Hashtbl.iter (fun k n -> bump dst.s_populations k n) src.s_populations;
  Hashtbl.iter
    (fun k o ->
      match Hashtbl.find_opt dst.s_observations k with
      | None ->
          Hashtbl.replace dst.s_observations k
            {
              values = Hashtbl.copy o.values;
              evicted = o.evicted;
              evicted_all_cidr = o.evicted_all_cidr;
            }
      | Some into ->
          Hashtbl.iter (fun v n -> bump into.values v n) o.values;
          into.evicted <- into.evicted + o.evicted;
          into.evicted_all_cidr <- into.evicted_all_cidr && o.evicted_all_cidr;
          cap_obs into)
    src.s_observations;
  dst

(* The public face of [shard]: raw monoid count tables, the unit of
   incremental KB construction. [stats_of_projects] builds them,
   [merge_stats] adds them (exact integer addition, associative over any
   contiguous grouping of the corpus), [finalize] derives the canonical
   KB — so stats(prefix) + stats(delta) finalizes identically to
   stats(prefix @ delta), which is what lets the pipeline count the
   corpus shard by shard. *)
type stats = shard

let stats_of_projects ?jobs projects =
  match Parallel.chunks ?jobs projects with
  | [] -> build_shard []
  | chunks ->
      (* Shards in parallel, merge strictly in chunk order. *)
      List.fold_left merge_shard (build_shard [])
        (Parallel.map ?jobs build_shard chunks)

let merge_stats = merge_shard

module Codec = Zodiac_util.Codec

let write_stats b (s : stats) =
  let ws = Codec.write_string in
  Codec.write_table
    (fun b (ty, attr) ->
      ws b ty;
      ws b attr)
    (fun b o ->
      Codec.write_table Value.write Codec.write_int b o.values;
      Codec.write_int b o.evicted;
      Codec.write_bool b o.evicted_all_cidr)
    b s.s_observations;
  Codec.write_table
    (fun b (ty, attr) ->
      ws b ty;
      ws b attr)
    Codec.write_int b s.s_presence;
  Codec.write_table
    (fun b (st, sa, dt, da) ->
      ws b st;
      ws b sa;
      ws b dt;
      ws b da)
    Codec.write_int b s.s_conns;
  Codec.write_table ws Codec.write_int b s.s_populations

let read_stats s =
  let rs = Codec.read_string in
  let pair s =
    let ty = rs s in
    let attr = rs s in
    (ty, attr)
  in
  let s_observations =
    Codec.read_table pair
      (fun s ->
        let values = Codec.read_table Value.read Codec.read_int s in
        let evicted = Codec.read_int s in
        let evicted_all_cidr = Codec.read_bool s in
        { values; evicted; evicted_all_cidr })
      s
  in
  let s_presence = Codec.read_table pair Codec.read_int s in
  let s_conns =
    Codec.read_table
      (fun s ->
        let st = rs s in
        let sa = rs s in
        let dt = rs s in
        let da = rs s in
        (st, sa, dt, da))
      Codec.read_int s
  in
  let s_populations = Codec.read_table rs Codec.read_int s in
  { s_observations; s_presence; s_conns; s_populations }

let stats_artifact =
  { Zodiac_util.Stage.write = write_stats; read = read_stats }

let compare_observed (v1, c1) (v2, c2) =
  match Int.compare c2 c1 with 0 -> Value.compare v1 v2 | n -> n

let compare_conns a b =
  match Int.compare b.count a.count with
  | 0 ->
      Stdlib.compare
        (a.src_type, a.src_attr, a.dst_type, a.dst_attr)
        (b.src_type, b.src_attr, b.dst_type, b.dst_attr)
  | n -> n

let finalize ~provider (stats : stats) =
  let { s_observations = observations; s_presence = attr_presence;
        s_conns = conn_counts; s_populations = populations } =
    stats
  in
  (* Fold schema facts (Class 1 + declared Class 2) with observations. *)
  let entries = Hashtbl.create 512 in
  let add_entry rtype attr requirement declared_format default =
    let k = (rtype, attr) in
    let o =
      match Hashtbl.find_opt observations k with
      | Some o -> o
      | None -> new_obs ()
    in
    let observed_index = o.values in
    let observed =
      Hashtbl.fold (fun v c acc -> (v, c) :: acc) observed_index []
      |> List.sort compare_observed
    in
    let occurrences = Option.value ~default:0 (Hashtbl.find_opt attr_presence k) in
    let strings_only =
      observed <> []
      && (List.for_all
            (fun (v, _) -> match v with Value.Str _ -> true | _ -> false)
            observed
         || List.for_all
              (fun (v, _) -> match v with Value.Bool _ -> true | _ -> false)
              observed)
    in
    (* True corpus total: kept counts plus the evicted residue, so
       priors and support thresholds see the whole corpus even past the
       observation cap. *)
    let observed_total =
      List.fold_left (fun acc (_, c) -> acc + c) 0 observed + o.evicted
    in
    let enum_values =
      match declared_format with
      | Schema.Enum declared -> List.map (fun s -> Value.Str s) declared
      | Schema.Free_string
        when strings_only && o.evicted = 0
             && List.length observed <= max_enum_cardinality
             && observed_total >= min_enum_support ->
          List.map fst observed
      | Schema.Free_string | Schema.Cidr_format | Schema.Port_format | Schema.Region
      | Schema.Name_format | Schema.Id_format ->
          []
    in
    (* Infer CIDR format from observed values when undeclared. *)
    let format =
      match declared_format with
      | Schema.Free_string
        when observed <> []
             && List.for_all (fun (v, _) -> value_is_cidr v) observed
             && o.evicted_all_cidr ->
          Schema.Cidr_format
      | f -> f
    in
    Hashtbl.replace entries k
      {
        rtype;
        attr;
        requirement;
        format;
        observed;
        observed_index;
        observed_total;
        enum_values;
        default;
        occurrences;
      }
  in
  (* Class 1: every schema attribute. *)
  List.iter
    (fun schema ->
      List.iter
        (fun (path, (a : Schema.attr)) ->
          add_entry schema.Schema.type_name path (Some a.Schema.req) a.Schema.format
            a.Schema.default)
        (Schema.leaf_paths schema))
    provider.Provider.schemas;
  (* Corpus-only attributes (unknown to schemas) still get entries; sorted
     so the entry table is filled in a chunking-independent order. *)
  Hashtbl.fold (fun k _count acc -> k :: acc) attr_presence []
  |> List.sort Stdlib.compare
  |> List.iter (fun ((rtype, attr) as k) ->
         if not (Hashtbl.mem entries k) then
           add_entry rtype attr None Schema.Free_string None);
  let conns =
    Hashtbl.fold
      (fun (src_type, src_attr, dst_type, dst_attr) count acc ->
        { src_type; src_attr; dst_type; dst_attr; count } :: acc)
      conn_counts []
    |> List.sort compare_conns
  in
  let known_types =
    let from_corpus =
      Hashtbl.fold
        (fun (ty, _attr) _ acc ->
          if List.mem ty acc then acc else ty :: acc)
        attr_presence []
      |> List.sort String.compare
    in
    List.fold_left
      (fun acc ty -> if List.mem ty acc then acc else acc @ [ ty ])
      provider.Provider.type_names from_corpus
  in
  { entries; conns; known_types; populations }

let build ~provider ?jobs ~projects () =
  finalize ~provider (stats_of_projects ?jobs projects)

let attr_info t ~rtype ~attr = Hashtbl.find_opt t.entries (rtype, attr)

let population t rtype =
  Option.value ~default:0 (Hashtbl.find_opt t.populations rtype)

let attrs_of_type t rtype =
  Hashtbl.fold
    (fun _ info acc -> if String.equal info.rtype rtype then info :: acc else acc)
    t.entries []
  |> List.sort (fun a b -> String.compare a.attr b.attr)

let enum_values t ~rtype ~attr =
  match attr_info t ~rtype ~attr with Some info -> info.enum_values | None -> []

let conn_kinds t = t.conns

let conn_kinds_from t src_type =
  List.filter (fun c -> String.equal c.src_type src_type) t.conns

let conn_kinds_between t src_type dst_type =
  List.filter
    (fun c -> String.equal c.src_type src_type && String.equal c.dst_type dst_type)
    t.conns

let legal_targets t ~src_type ~src_attr =
  List.filter_map
    (fun c ->
      if String.equal c.src_type src_type && String.equal c.src_attr src_attr then
        Some (c.dst_type, c.dst_attr)
      else None)
    t.conns

let cidr_attrs t rtype =
  List.filter_map
    (fun info ->
      if info.format = Schema.Cidr_format then Some info.attr else None)
    (attrs_of_type t rtype)

let numeric_attrs t rtype =
  List.filter_map
    (fun info ->
      let numeric =
        info.observed <> []
        && List.for_all
             (fun (v, _) -> match v with Value.Int _ -> true | _ -> false)
             info.observed
      in
      if numeric then Some info.attr else None)
    (attrs_of_type t rtype)

let defaults provider ~rtype ~attr = Provider.defaults provider ~rtype ~attr

let types t = t.known_types

let size t = Hashtbl.length t.entries
