module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Graph = Zodiac_iac.Graph
module Schema = Zodiac_iac.Schema
module Path = Zodiac_iac.Path
module Check = Zodiac_spec.Check
module Eval = Zodiac_spec.Eval
module Kb = Zodiac_kb.Kb
module Csp = Zodiac_solver.Csp
module Provider = Zodiac_provider.Provider
module Cidr = Zodiac_util.Cidr
module Arm = Zodiac_cloud.Arm

type options = { consider_others : bool; minimize_changes : bool }

let default_options = { consider_others = true; minimize_changes = true }

type result = {
  program : Program.t;
  violated_soft : string list;
  attr_changes : int;
  topo_changes : int;
}

(* ------------------------------------------------------------------ *)
(* Mutable slots                                                       *)
(* ------------------------------------------------------------------ *)

(* A slot addresses one mutable position: an attribute path of one
   resource, its index variables bound to element positions. *)
type slot = { rid : Resource.id; path : Path.t }

let slot_name s = Printf.sprintf "%s.%s" (Resource.id_to_string s.rid) (Path.to_string s.path)

let read_slot prog s =
  match Program.find prog s.rid with
  | Some r -> Path.get s.path (Value.Block r.Resource.attrs)
  | None -> Value.Null

let write_slot prog s v = Program.update prog s.rid (fun r -> Resource.set_path r s.path v)

(* Items per resource, resources in order of first appearance, each
   resource's items in order: the shape of [Eval.slots]. *)
let by_resource items =
  let rec add rid item = function
    | [] -> [ (rid, [ item ]) ]
    | (rid', items) :: rest when Resource.equal_id rid rid' -> (rid', item :: items) :: rest
    | group :: rest -> group :: add rid item rest
  in
  List.fold_left (fun groups (s, x) -> add s.rid (s.path, x) groups) [] items
  |> List.map (fun (rid, items) -> (rid, List.rev items))

(* [write_slot] of every write, one pass over the program per resource. *)
let write_slots prog groups =
  List.fold_left
    (fun prog (rid, writes) ->
      Program.update prog rid (fun r ->
          List.fold_left (fun r (path, v) -> Resource.set_path r path v) r writes))
    prog groups

(* ------------------------------------------------------------------ *)
(* Domains                                                             *)
(* ------------------------------------------------------------------ *)

(* Fresh-name source for synthesized resources/values. Domain-local, and
   reset at every [negative] entry, so the names a mutation uses depend
   only on that mutation's own inputs — never on how many mutations ran
   before it or on which domain it runs. Names only need to be unique
   within one mutant program. *)
let fresh_counter = Domain.DLS.new_key (fun () -> ref 0)

let reset_fresh () = Domain.DLS.get fresh_counter := 0

let fresh_string prefix =
  let r = Domain.DLS.get fresh_counter in
  incr r;
  Printf.sprintf "%s-zn%d" prefix !r

(* Integer constants compared against [attr] anywhere in the checks. *)
let int_constants_for checks rtype attr =
  let acc = ref [] in
  let add i = if not (List.mem i !acc) then acc := i :: !acc in
  let scan_term relevant = function
    | Check.Const (Value.Int i) when relevant -> List.iter add [ i; i + 1; max 0 (i - 1) ]
    | _ -> ()
  in
  let rec scan_expr (check : Check.t) = function
    | Check.Cmp (_, t1, t2) | Check.Func (_, t1, t2) ->
        let mentions t =
          match t with
          | Check.Attr { Check.var; attr = a } ->
              Check.strip_indices a = attr
              && (match Check.binding_type check var with
                 | Some ty -> String.equal ty rtype
                 | None -> false)
          | _ -> false
        in
        let rel = mentions t1 || mentions t2 in
        scan_term rel t1;
        scan_term rel t2
    | Check.Not e -> scan_expr check e
    | Check.And es -> List.iter (scan_expr check) es
    | Check.Conn _ | Check.Path _ | Check.Coconn _ | Check.Copath _ -> ()
  in
  List.iter
    (fun (c : Check.t) ->
      scan_expr c c.Check.cond;
      scan_expr c c.Check.stmt)
    checks;
  !acc

(* Candidate values for a slot, original first. *)
let slot_domain provider kb checks prog slot =
  let original = read_slot prog slot in
  let rtype = slot.rid.Resource.rtype in
  let attr = Path.to_string (Path.strip slot.path) in
  let info = Kb.attr_info kb ~rtype ~attr in
  let optional =
    match info with
    | Some { Kb.requirement = Some Schema.Optional; _ } -> true
    | Some { Kb.requirement = None; _ } -> true
    | _ -> false
  in
  let format = match info with Some i -> i.Kb.format | None -> Schema.Free_string in
  let base =
    match format with
    | Schema.Enum values -> List.map (fun s -> Value.Str s) values
    | Schema.Region ->
        (* regions already used in the program (so added resources can
           align), plus a couple of foreign ones (to break alignment) *)
        let in_program =
          List.filter_map
            (fun r ->
              match Resource.get r "location" with
              | Value.Str s -> Some (Value.Str s)
              | _ -> None)
            (Program.resources prog)
        in
        let foreign =
          List.filteri (fun i _ -> i < 2) provider.Provider.regions
          |> List.map (fun r -> Value.Str r)
        in
        in_program @ foreign
    | Schema.Cidr_format -> (
        (* the original, its adjacent sibling, CIDRs of same-attr peers
           (to manufacture overlaps), and a clearly-foreign block *)
        let peers =
          List.concat_map
            (fun r ->
              if String.equal r.Resource.rtype rtype then
                match Resource.get r attr with
                | Value.Str s -> (
                    match Cidr.of_string s with Some c -> [ c ] | None -> [])
                | _ -> []
              else [])
            (Program.resources prog)
        in
        match original with
        | Value.Str s -> (
            match Cidr.of_string s with
            | Some c ->
                List.map
                  (fun c -> Value.Str (Cidr.to_string c))
                  (c :: Cidr.adjacent c :: peers)
                @ [ Value.Str "192.168.250.0/24" ]
            | None -> [ Value.Str "192.168.250.0/24" ])
        | _ -> [ Value.Str "192.168.250.0/24" ])
    | Schema.Name_format ->
        (* reserved names give name checks something to bite on *)
        List.map (fun (n, _) -> Value.Str n) provider.Provider.reserved_names
        @ [ Value.Str (fresh_string "res") ]
    | Schema.Port_format | Schema.Id_format | Schema.Free_string -> (
        match info with
        | Some i ->
            List.filteri (fun idx _ -> idx < 3) i.Kb.observed |> List.map fst
        | None -> [])
  in
  let base =
    match original with
    | Value.Bool b -> [ Value.Bool b; Value.Bool (not b) ]
    | Value.Int i ->
        List.map
          (fun v -> Value.Int v)
          (List.sort_uniq Int.compare
             ((i :: i + 1 :: max 0 (i - 1) :: int_constants_for checks rtype attr)))
    | _ -> base
  in
  let with_null = if optional then base @ [ Value.Null ] else base in
  List.rev
    (List.fold_left
       (fun acc v -> if List.exists (Value.equal v) acc then acc else v :: acc)
       []
       ((original :: with_null)
      @ (match format with
        | Schema.Enum _ | Schema.Region | Schema.Cidr_format | Schema.Name_format ->
            []
        | Schema.Port_format | Schema.Id_format | Schema.Free_string -> (
            (* give non-null alternatives to currently-null free slots *)
            match original with
            | Value.Null -> [ Value.Str (fresh_string "val") ]
            | _ -> []))))

(* ------------------------------------------------------------------ *)
(* Virtual resource additions for aggregation targets                  *)
(* ------------------------------------------------------------------ *)

let rename_suffix prog suffix =
  (* rename every resource with a suffix, rewriting references *)
  let resources = Program.resources prog in
  let renames =
    List.map
      (fun r ->
        let id = Resource.id r in
        (id, { id with Resource.rname = id.Resource.rname ^ suffix }))
      resources
  in
  let renamed =
    List.map
      (fun r ->
        let r =
          List.fold_left
            (fun r (old_id, new_id) -> Resource.rename_refs ~old_id ~new_id r)
            r renames
        in
        { r with Resource.rname = r.Resource.rname ^ suffix })
      resources
  in
  Program.of_resources renamed

let reserved_names provider = List.map fst provider.Provider.reserved_names

let freshen_names provider prog =
  (* give every resource a fresh, unique "name" attribute value —
     except provider-reserved names (GatewaySubnet, ...), which carry
     semantics and are unique per parent anyway *)
  Program.of_resources
    (List.map
       (fun r ->
         match Resource.attr r "name" with
         | Some (Value.Str s) when not (List.mem s (reserved_names provider)) ->
             Resource.set r "name" (Value.Str (fresh_string s))
         | _ -> r)
       (Program.resources prog))

(* Region of the majority of a program's resources. *)
let dominant_region prog =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match Resource.get r "location" with
      | Value.Str loc ->
          Hashtbl.replace counts loc
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts loc))
      | _ -> ())
    (Program.resources prog);
  Hashtbl.fold
    (fun loc c best ->
      match best with
      | Some (_, c') when c' >= c -> best
      | _ -> Some (loc, c))
    counts None
  |> Option.map fst

(* Duplicate [src] (a resource of [prog]) with a fresh local name and a
   fresh "name" attribute; returns the duplicate. *)
let duplicate prog src_id =
  match Program.find prog src_id with
  | None -> None
  | Some r ->
      let rname = Program.fresh_name prog r.Resource.rtype in
      let dup = { r with Resource.rname = rname } in
      let dup =
        match Resource.attr dup "name" with
        | Some (Value.Str s) -> Resource.set dup "name" (Value.Str (fresh_string s))
        | _ -> dup
      in
      (* fresh nested ip_config / os_disk names to avoid collisions *)
      let dup =
        List.fold_left
          (fun dup path ->
            match Resource.get dup path with
            | Value.Str s when String.length s > 0 ->
                Resource.set dup path (Value.Str (fresh_string s))
            | _ -> dup)
          dup [ "os_disk.name" ]
      in
      Some dup

type addition_plan = {
  new_program : Program.t;
  added : Resource.id list;
}

(* Raise indegree(r, tau): r gains references to duplicated tau
   resources through the list attribute it already uses. *)
let raise_indegree prog r_id tau need =
  let graph = Graph.build prog in
  let existing =
    List.filter
      (fun (e : Graph.edge) -> String.equal e.Graph.dst.Resource.rtype tau)
      (Graph.edges_from graph r_id)
  in
  match existing with
  | [] -> None
  | edge :: _ -> (
      let list_attr = edge.Graph.src_attr in
      let rec add_copies prog added n =
        if n = 0 then Some (prog, added)
        else
          match duplicate prog edge.Graph.dst with
          | None -> None
          | Some dup ->
              let prog = Program.add prog dup in
              let dup_id = Resource.id dup in
              let prog =
                Program.update prog r_id (fun r ->
                    match Resource.get r list_attr with
                    | Value.List items ->
                        Resource.set r list_attr
                          (Value.List
                             (items
                             @ [
                                 Value.Ref
                                   {
                                     Value.rtype = dup_id.Resource.rtype;
                                     rname = dup_id.Resource.rname;
                                     attr = edge.Graph.dst_attr;
                                   };
                               ]))
                    | _ -> r)
              in
              add_copies prog (dup_id :: added) (n - 1)
      in
      match add_copies prog [] need with
      | Some (new_program, added) -> Some { new_program; added }
      | None -> None)

(* Raise outdegree(r, tau): duplicate existing referencing resources of
   type tau (keeping their reference to r). *)
let raise_outdegree prog r_id tau need =
  let graph = Graph.build prog in
  let existing =
    List.filter
      (fun (e : Graph.edge) -> String.equal e.Graph.src.Resource.rtype tau)
      (Graph.edges_to graph r_id)
  in
  match existing with
  | [] -> None
  | edge :: _ -> (
      let rec add_copies prog added n =
        if n = 0 then Some (prog, added)
        else
          match duplicate prog edge.Graph.src with
          | None -> None
          | Some dup -> add_copies (Program.add prog dup) (Resource.id dup :: added) (n - 1)
      in
      match add_copies prog [] need with
      | Some (new_program, added) -> Some { new_program; added }
      | None -> None)

(* Attach a resource of a type other than [tau] to r: instantiate a
   donor pattern from the corpus and remap its reference. *)
let attach_foreign ~provider ~kb ~donors prog (r_id : Resource.id) tau =
  let dst_type = r_id.Resource.rtype in
  let kinds =
    List.filter
      (fun (k : Kb.conn_kind) ->
        String.equal k.Kb.dst_type dst_type && not (String.equal k.Kb.src_type tau)
        && provider.Provider.find_schema k.Kb.src_type <> None)
      (Kb.conn_kinds kb)
  in
  let try_kind (k : Kb.conn_kind) =
    (* find a donor program containing such an edge *)
    List.find_map
      (fun (_, donor) ->
        let graph = Graph.build donor in
        List.find_map
          (fun (e : Graph.edge) ->
            if
              String.equal e.Graph.src.Resource.rtype k.Kb.src_type
              && String.equal e.Graph.src_attr k.Kb.src_attr
              && String.equal e.Graph.dst.Resource.rtype dst_type
            then begin
              (* donor closure of the source, excluding the old target's
                 own subtree where possible *)
              let closure = Mdc.prune donor ~keep:[ e.Graph.src ] in
              let closure = rename_suffix closure "_zn" in
              let closure = freshen_names provider closure in
              (* align the donor's regions with the target program *)
              let closure =
                match dominant_region prog with
                | None -> closure
                | Some region ->
                    Program.of_resources
                      (List.map
                         (fun r ->
                           match Resource.get r "location" with
                           | Value.Str _ ->
                               Resource.set r "location" (Value.Str region)
                           | _ -> r)
                         (Program.resources closure))
              in
              let src' =
                {
                  e.Graph.src with
                  Resource.rname = e.Graph.src.Resource.rname ^ "_zn";
                }
              in
              (* remap the donor edge so it points at r *)
              let closure =
                Program.update closure src' (fun r ->
                    Resource.rename_refs
                      ~old_id:{ e.Graph.dst with Resource.rname = e.Graph.dst.Resource.rname ^ "_zn" }
                      ~new_id:r_id r)
              in
              (* merge; drop donor resources that became unreferenced *)
              let merged =
                List.fold_left Program.add prog (Program.resources closure)
              in
              let pruned =
                Mdc.prune merged
                  ~keep:(src' :: List.map Resource.id (Program.resources prog))
              in
              let added =
                List.filter_map
                  (fun r ->
                    let id = Resource.id r in
                    if Program.mem prog id then None else Some id)
                  (Program.resources pruned)
              in
              if added = [] then None else Some { new_program = pruned; added }
            end
            else None)
          (Graph.edges graph))
      donors
  in
  List.find_map try_kind kinds

(* ------------------------------------------------------------------ *)
(* Strategy selection                                                  *)
(* ------------------------------------------------------------------ *)

let witness_resource (tp : Testcase.tp) var =
  List.assoc_opt var tp.Testcase.witness

(* Plan topology additions needed to make the target's statement
   falsifiable; returns the augmented program and added ids. *)
let plan_additions ~provider ~kb ~donors (tp : Testcase.tp) (target : Check.t) =
  let prog = tp.Testcase.program in
  let graph = Graph.build prog in
  let rec plan expr =
    match expr with
    | Check.Cmp (op, Check.Indeg (var, Graph.Type tau), Check.Const (Value.Int k)) -> (
        match witness_resource tp var with
        | None -> None
        | Some rid ->
            let current = Graph.indegree graph rid (Graph.Type tau) in
            let needed =
              match op with
              | Check.Le -> (k + 1) - current
              | Check.Eq -> if k = 0 then 1 else (k + 1) - current
              | Check.Lt -> k - current
              | Check.Ne | Check.Ge | Check.Gt -> -1
            in
            if needed <= 0 then Some { new_program = prog; added = [] }
            else raise_indegree prog rid tau needed)
    | Check.Cmp (op, Check.Outdeg (var, spec), Check.Const (Value.Int k)) -> (
        match witness_resource tp var with
        | None -> None
        | Some rid -> (
            match (spec, op) with
            | Graph.Type tau, (Check.Le | Check.Eq) ->
                let current = Graph.outdegree graph rid (Graph.Type tau) in
                let needed = (k + 1) - current in
                if needed <= 0 then Some { new_program = prog; added = [] }
                else raise_outdegree prog rid tau needed
            | Graph.Not_type tau, Check.Eq when k = 0 ->
                attach_foreign ~provider ~kb ~donors prog rid tau
            | _ -> None))
    | Check.And es ->
        (* violating any conjunct suffices; prefer attribute conjuncts
           (no additions), else the first satisfiable plan *)
        let attr_only =
          List.exists
            (fun e ->
              match e with
              | Check.Cmp (_, Check.Attr _, _)
              | Check.Cmp (_, _, Check.Attr _)
              | Check.Func _ | Check.Not _ ->
                  true
              | _ -> false)
            es
        in
        if attr_only then Some { new_program = prog; added = [] }
        else List.find_map plan es
    | Check.Cmp _ | Check.Func _ | Check.Not _ ->
        Some { new_program = prog; added = [] }
    | Check.Conn _ | Check.Path _ | Check.Coconn _ | Check.Copath _ ->
        (* topological statements would need edge rewiring; out of the
           currently supported mutation space *)
        None
  in
  plan target.Check.stmt

(* ------------------------------------------------------------------ *)
(* CSP assembly                                                        *)
(* ------------------------------------------------------------------ *)

(* Slots referenced by a check within a program: per endpoint and
   resource of the bound type, one per element position its index
   variables range over. *)
let slots_of_check prog (check : Check.t) =
  List.concat_map
    (fun (e : Check.endpoint) ->
      let path = Path.of_string e.Check.attr in
      let slots r =
        let value = Value.Block r.Resource.attrs in
        let extend envs x =
          List.concat_map
            (fun env ->
              let n = Option.value ~default:0 (Path.index_range ~env path x value) in
              List.init n (fun i -> env @ [ (x, i) ]))
            envs
        in
        List.fold_left extend [ [] ] (Path.index_vars path)
        |> List.map (fun env -> { rid = Resource.id r; path = Path.bind env path })
      in
      match Check.binding_type check e.Check.var with
      | Some ty -> List.concat_map slots (Program.by_type prog ty)
      | None -> [])
    (Check.attrs_of_expr check.Check.cond @ Check.attrs_of_expr check.Check.stmt)

(* Whether every type the check binds occurs among [types]. *)
let relevant_check types compiled =
  List.for_all
    (fun (b : Check.binding) -> List.mem b.Check.btype types)
    (Eval.check compiled).Check.bindings

(* First occurrences, in order. *)
let dedup_slots slots =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun s ->
      let fresh = not (Hashtbl.mem seen s) in
      if fresh then Hashtbl.add seen s ();
      fresh)
    slots

(* A [conn], [path], [coconn], [copath] or degree term: the verdict
   reads edges as well as attributes. *)
let reads_edges (check : Check.t) =
  let term = function Check.Indeg _ | Check.Outdeg _ -> true | Check.Const _ | Check.Attr _ -> false in
  let rec expr = function
    | Check.Conn _ | Check.Path _ | Check.Coconn _ | Check.Copath _ -> true
    | Check.Cmp (_, t1, t2) | Check.Func (_, t1, t2) -> term t1 || term t2
    | Check.Not e -> expr e
    | Check.And es -> List.exists expr es
  in
  expr check.Check.cond || expr check.Check.stmt

let rec is_prefix p q =
  match (p, q) with [], _ -> true | x :: p, y :: q -> x = y && is_prefix p q | _ :: _, [] -> false

(* The fields of every collection an index variable of the check ranges
   over: [a\[i\].b\[j\].c] gives [a] and [a.b]. *)
let ranged_collections (check : Check.t) =
  let rec collections prefix = function
    | [] -> []
    | (seg : Path.segment) :: rest ->
        let prefix = prefix @ [ seg.Path.field ] in
        (match seg.Path.index with Some (Path.Var _) -> [ prefix ] | Some (Path.At _) | None -> [])
        @ collections prefix rest
  in
  List.concat_map
    (fun (e : Check.endpoint) -> collections [] (Path.of_string e.Check.attr))
    (Check.attrs_of_expr check.Check.cond @ Check.attrs_of_expr check.Check.stmt)

let slot_form prog check scope =
  let fields (p : Path.t) = List.map (fun (seg : Path.segment) -> seg.Path.field) p in
  let collections = ranged_collections check in
  let edges = reads_edges check in
  let located =
    List.map
      (fun (s, dom) ->
        match Program.find prog s.rid with
        | None -> None
        | Some r ->
            let original = Path.get s.path (Value.Block r.Resource.attrs) and at = fields s.path in
            if
              List.exists (is_prefix at) collections
              || (edges && List.exists (fun v -> Value.refs v <> []) (original :: dom))
            then None
            else
              Option.map
                (fun steps -> (Resource.id_to_string s.rid, steps))
                (Path.location s.path (Value.Block r.Resource.attrs)))
      scope
  in
  List.for_all Option.is_some located
  &&
  (* sorted, a place at or under another comes right after some place
     that is its prefix *)
  let rec disjoint = function
    | (r1, l1) :: ((r2, l2) :: _ as rest) ->
        (not (String.equal r1 r2 && is_prefix l1 l2)) && disjoint rest
    | [ _ ] | [] -> true
  in
  disjoint (List.sort compare (List.filter_map Fun.id located))

(* Deterministic counts of the mutation searches, summed over calls. *)
type counters = int Atomic.t array

let counter_names =
  [|
    "solver.solves"; "solver.unsat"; "solver.nodes"; "solver.budget_hits";
    "solver.calls.target"; "solver.calls.hard"; "solver.calls.soft";
    "solver.calls.slot_form"; "solver.calls.fallback";
  |]

let solves = 0 and unsat = 1 and nodes = 2 and budget_hits = 3
let calls_target = 4 and calls_hard = 5 and calls_soft = 6
let calls_slot_form = 7 and calls_fallback = 8

let counters () = Array.map (fun _ -> Atomic.make 0) counter_names

let counter_totals counters =
  Array.to_list (Array.mapi (fun i name -> (name, Atomic.get counters.(i))) counter_names)

let node_budget = 6_000

type var_slot = { slot : slot; var : Csp.var; dom : Value.t list; original : Value.t }

let negative ?(options = default_options) ?counters ~provider ~kb ~donors ~target ~hard
    ~soft tp =
  let defaults = Arm.defaults provider in
  reset_fresh ();
  match plan_additions ~provider ~kb ~donors tp (Eval.check target) with
  | None -> None
  | Some { new_program = base; added } -> (
      let types = Program.types base in
      let hard = List.filter (relevant_check types) hard in
      let soft = List.filter (relevant_check types) soft in
      (* Bound the soft encoding: beyond a few dozen checks the solver
         spends its budget scoring rather than searching. Checks that
         constrain the freshly-added resources come first — they are the
         ones the mutation is most likely to trip. *)
      let added_types =
        List.sort_uniq String.compare
          (List.map (fun (id : Resource.id) -> id.Resource.rtype) added)
      in
      let binds_added c =
        List.exists
          (fun (b : Check.binding) -> List.mem b.Check.btype added_types)
          (Eval.check c).Check.bindings
      in
      let soft =
        List.stable_sort
          (fun c1 c2 ->
            Int.compare
              (if binds_added c1 then 0 else 1)
              (if binds_added c2 then 0 else 1))
          soft
      in
      let soft = List.filteri (fun i _ -> i < 30) soft in
      let hard =
        List.stable_sort
          (fun c1 c2 ->
            Int.compare
              (if binds_added c1 then 0 else 1)
              (if binds_added c2 then 0 else 1))
          hard
      in
      let hard = List.filteri (fun i _ -> i < 40) hard in
      (* The mutation search space always spans the attributes the known
         checks talk about; the consider_others ablation only drops the
         corresponding constraints, leaving the solver free to wander.
         Each check's slots are found once. *)
      let all_checks = List.map Eval.check ((target :: hard) @ soft) in
      let with_slots c = (c, slots_of_check base (Eval.check c)) in
      let target = with_slots target in
      let hard = List.map with_slots hard and soft = List.map with_slots soft in
      let slots = dedup_slots (List.concat_map snd ((target :: hard) @ soft)) in
      let hard = if options.consider_others then hard else [] in
      let soft = if options.consider_others then soft else [] in
      (* never mutate resources of unattended types *)
      let slots =
        List.filter
          (fun s ->
            provider.Provider.find_schema s.rid.Resource.rtype
            <> None)
          slots
      in
      if slots = [] then None
      else begin
        let problem = Csp.create () in
        let target_slots = Hashtbl.create 16 in
        List.iter (fun s -> Hashtbl.replace target_slots s ()) (snd target);
        let var_of_slot = Hashtbl.create 64 in
        let vars =
          List.map
            (fun slot ->
              let dom = slot_domain provider kb all_checks base slot in
              (* without change minimization the original value loses its
                 head-of-domain advantage: the solver takes whatever
                 comes first (Table 5's "no constraints" ablation) *)
              let dom =
                if options.minimize_changes then dom
                else
                  match dom with
                  | original :: rest -> rest @ [ original ]
                  | [] -> dom
              in
              let var = Csp.new_var problem ~name:(slot_name slot) dom in
              if Hashtbl.mem target_slots slot then Csp.set_priority problem var 0;
              let vs = { slot; var; dom; original = read_slot base slot } in
              Hashtbl.replace var_of_slot slot vs;
              vs)
            slots
        in
        if options.minimize_changes then
          List.iter
            (fun { slot; var; original; _ } ->
              let is_added =
                List.exists (Resource.equal_id slot.rid) added
              in
              Csp.set_value_cost problem var (fun v ->
                  if Value.equal v original then 0
                  else if is_added then 1
                  else
                    (* prefer minimal distance for ordered values *)
                    match (original, v) with
                    | Value.Int a, Value.Int b -> 1 + min 3 (abs (a - b))
                    | Value.Str a, Value.Str b -> (
                        match (Cidr.of_string a, Cidr.of_string b) with
                        | Some ca, Some cb ->
                            if Cidr.equal (Cidr.adjacent ca) cb then 1 else 2
                        | _ -> 2)
                    | _ -> 2))
            vars;
        let base_graph = Graph.build base in
        let count = Array.make (Array.length counter_names) 0 in
        let bump i = count.(i) <- count.(i) + 1 in
        (* A check only depends on the slots in its own scope; unassigned
           slots keep their original values. Once per solve, each
           constraint decides whether its scope can take the slot form
           ([slot_form]): its predicate then reads the solver's values
           over the base program and graph. Otherwise it writes them
           into a copy of the base program and rebuilds the graph. *)
        let add_constraint ~role name (check, check_slots) ~negate =
          let scoped = List.filter_map (Hashtbl.find_opt var_of_slot) (dedup_slots check_slots) in
          let scope = List.map (fun vs -> vs.var) scoped in
          let groups = by_resource (List.map (fun vs -> (vs.slot, vs.var)) scoped) in
          let in_place =
            slot_form base (Eval.check check) (List.map (fun vs -> (vs.slot, vs.dom)) scoped)
          in
          (* The solver caches verdicts per scope assignment, so each
             distinct one is evaluated here once per solve. *)
          let pred lookup =
            bump role;
            let values =
              List.map (fun (rid, vars) -> (rid, List.map (fun (path, var) -> (path, lookup var)) vars)) groups
            in
            let holds =
              if in_place then (
                bump calls_slot_form;
                Eval.holds_slots ~defaults base_graph check values)
              else (
                bump calls_fallback;
                Eval.holds ~defaults (Graph.build (write_slots base values)) check)
            in
            holds <> negate
          in
          if role = calls_soft then Csp.add_soft problem ~name ~weight:10 scope pred
          else Csp.add_hard problem ~name scope pred
        in
        add_constraint ~role:calls_target "target-violated" target ~negate:true;
        List.iter
          (fun ((h, _) as hs) ->
            add_constraint ~role:calls_hard ("hard:" ^ (Eval.check h).Check.cid) hs ~negate:false)
          hard;
        List.iter
          (fun ((s, _) as ss) ->
            add_constraint ~role:calls_soft ("soft:" ^ (Eval.check s).Check.cid) ss ~negate:false)
          soft;
        let solution = Csp.solve ~node_budget ~good_enough:6 problem in
        let explored = Csp.stats_nodes problem in
        bump solves;
        if Option.is_none solution then bump unsat;
        count.(nodes) <- explored;
        if explored >= node_budget then bump budget_hits;
        Option.iter
          (fun counters ->
            Array.iteri (fun i n -> ignore (Atomic.fetch_and_add counters.(i) n)) count)
          counters;
        match solution with
        | None -> None
        | Some solution ->
            let final =
              write_slots base
                (by_resource (List.map (fun vs -> (vs.slot, Csp.value solution vs.var)) vars))
            in
            let final_graph = Graph.build final in
            let violated_soft =
              List.filter_map
                (fun (s, _) ->
                  if Eval.holds ~defaults final_graph s then None
                  else Some (Eval.check s).Check.cid)
                soft
            in
            let attr_changes =
              List.fold_left
                (fun acc { slot; original; _ } ->
                  let is_added =
                    List.exists (Resource.equal_id slot.rid) added
                  in
                  if is_added then acc
                  else if Value.equal (read_slot final slot) original then acc
                  else acc + 1)
                0 vars
            in
            Some
              {
                program = final;
                violated_soft;
                attr_changes;
                topo_changes = List.length added;
              }
      end)
