module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Graph = Zodiac_iac.Graph
module Path = Zodiac_iac.Path
module Cidr = Zodiac_util.Cidr

type assignment = (string * Resource.id) list

type slots = (Resource.id * (Path.t * Value.t) list) list

type defaults = rtype:string -> attr:string -> Value.t option

type stats = {
  instances : int;
  cond_true : int;
  stmt_true : int;
  both_true : int;
}

let no_defaults ~rtype:_ ~attr:_ = None

(* --- compiled form ------------------------------------------------- *)

(* A slot is a binding's position in the check; [-1] marks a variable
   no binding declares, which reads [Null] and connects nowhere. *)
type term =
  | Const of Value.t
  | Attr of { endpoint : Check.endpoint; slot : int; path : Path.t; stripped : string }
  | Indeg of { var : string; slot : int; spec : Graph.type_spec }
  | Outdeg of { var : string; slot : int; spec : Graph.type_spec }

type conn_end = { endpoint : Check.endpoint; slot : int; stripped : string }

type node = { var : string; slot : int }

type expr =
  | Conn of conn_end * conn_end
  | Path of node * node
  | Coconn of (conn_end * conn_end) * (conn_end * conn_end)
  | Copath of (node * node) * (node * node)
  | Cmp of Check.cmp_op * term * term
  | Func of Check.func * term * term
  | Not of expr
  | And of expr list

type form = {
  vars : string array;  (* slot -> bound variable *)
  btypes : string array;  (* slot -> bound type *)
  same_type : int list array;  (* slot -> earlier slots of its type *)
  ivars : (string * (int * Path.t) list) list;
      (* index variables in order, each with the endpoints it indexes *)
  cond : expr;
  stmt : expr;
}

(* The form is built on first use and published through an atomic, so a
   check set loaded at start-up costs nothing until a check is evaluated
   (a daemon loads every provider's rules; most requests touch one
   provider). Domains that race on the first use each build the same
   form, and one of them is kept. *)
type compiled = { check : Check.t; form : form option Atomic.t }

let compile check = { check; form = Atomic.make None }

let build (check : Check.t) =
  let bindings = Array.of_list check.Check.bindings in
  let vars = Array.map (fun (b : Check.binding) -> b.Check.var) bindings in
  let btypes = Array.map (fun (b : Check.binding) -> b.Check.btype) bindings in
  let slot var =
    let rec find i = if i = Array.length vars then -1 else if vars.(i) = var then i else find (i + 1) in
    find 0
  in
  let term = function
    | Check.Const v -> Const v
    | Check.Attr endpoint ->
        let path = Path.of_string endpoint.Check.attr in
        Attr { endpoint; slot = slot endpoint.Check.var; path; stripped = Path.to_string (Path.strip path) }
    | Check.Indeg (var, spec) -> Indeg { var; slot = slot var; spec }
    | Check.Outdeg (var, spec) -> Outdeg { var; slot = slot var; spec }
  in
  let conn_end (endpoint : Check.endpoint) =
    { endpoint; slot = slot endpoint.Check.var; stripped = Check.strip_indices endpoint.Check.attr }
  in
  let node var = { var; slot = slot var } in
  let rec expr = function
    | Check.Conn (a, b) -> Conn (conn_end a, conn_end b)
    | Check.Path (a, b) -> Path (node a, node b)
    | Check.Coconn ((a, b), (c, d)) -> Coconn ((conn_end a, conn_end b), (conn_end c, conn_end d))
    | Check.Copath ((a, b), (c, d)) -> Copath ((node a, node b), (node c, node d))
    | Check.Cmp (op, t1, t2) -> Cmp (op, term t1, term t2)
    | Check.Func (f, t1, t2) -> Func (f, term t1, term t2)
    | Check.Not e -> Not (expr e)
    | Check.And es -> And (List.map expr es)
  in
  let endpoints =
    List.map
      (fun (e : Check.endpoint) -> (slot e.Check.var, Path.of_string e.Check.attr))
      (Check.attrs_of_expr check.Check.cond @ Check.attrs_of_expr check.Check.stmt)
  in
  let ivars =
    List.map
      (fun x -> (x, List.filter (fun (_, p) -> List.mem x (Path.index_vars p)) endpoints))
      (Check.index_vars check)
  in
  let same_type =
    Array.mapi
      (fun k ty -> List.filter (fun j -> btypes.(j) = ty) (List.init k Fun.id))
      btypes
  in
  { vars; btypes; same_type; ivars; cond = expr check.Check.cond; stmt = expr check.Check.stmt }

let form c =
  match Atomic.get c.form with
  | Some f -> f
  | None ->
      let f = build c.check in
      Atomic.set c.form (Some f);
      f

let check c = c.check
let stmt c = (form c).stmt

let rec source = function
  | Conn (a, b) -> Check.Conn (a.endpoint, b.endpoint)
  | Path (a, b) -> Check.Path (a.var, b.var)
  | Coconn ((a, b), (c, d)) -> Check.Coconn ((a.endpoint, b.endpoint), (c.endpoint, d.endpoint))
  | Copath ((a, b), (c, d)) -> Check.Copath ((a.var, b.var), (c.var, d.var))
  | Cmp (op, t1, t2) -> Check.Cmp (op, term_source t1, term_source t2)
  | Func (f, t1, t2) -> Check.Func (f, term_source t1, term_source t2)
  | Not e -> Check.Not (source e)
  | And es -> Check.And (List.map source es)

and term_source = function
  | Const v -> Check.Const v
  | Attr a -> Check.Attr a.endpoint
  | Indeg d -> Check.Indeg (d.var, d.spec)
  | Outdeg d -> Check.Outdeg (d.var, d.spec)

(* --- instances ----------------------------------------------------- *)

(* One instance: a resource per slot and an index environment. The
   enumeration below rebinds one instance in place, so a search
   allocates no record per candidate. [overlay] holds the paths that
   read a given value instead of the resource's own ([holds_slots]). *)
type instance = {
  graph : Graph.t;
  defaults : defaults;
  overlay : slots;
  res : Resource.t array;
  ids : Resource.id array;
  blocks : Value.t array;  (* [Value.Block res.attrs], the walker's input *)
  mutable ienv : Path.env;
}

let no_resource = Resource.make "" "" []

let empty_instance ~defaults ~overlay graph f =
  let n = Array.length f.vars in
  {
    graph;
    defaults;
    overlay;
    res = Array.make n no_resource;
    ids = Array.make n (Resource.id no_resource);
    blocks = Array.make n Value.Null;
    ienv = [];
  }

let bind inst k (r : Resource.t) =
  inst.res.(k) <- r;
  inst.ids.(k) <- Resource.id r;
  inst.blocks.(k) <- Value.Block r.Resource.attrs

let rec resource_slots id = function
  | [] -> []
  | (rid, paths) :: rest -> if Resource.equal_id rid id then paths else resource_slots id rest

let rec read_slots env p block = function
  | [] -> Path.get ~env p block
  | (q, v) :: rest -> if Path.equal_bound env p q then v else read_slots env p block rest

let value inst = function
  | Const v -> v
  | Attr a when a.slot < 0 -> Value.Null
  | Attr a -> (
      let block = inst.blocks.(a.slot) in
      match
        match inst.overlay with
        | [] -> Path.get ~env:inst.ienv a.path block
        | overlay -> read_slots inst.ienv a.path block (resource_slots inst.ids.(a.slot) overlay)
      with
      | Value.Null ->
          Option.value ~default:Value.Null
            (inst.defaults ~rtype:inst.res.(a.slot).Resource.rtype ~attr:a.stripped)
      | v -> v)
  | Indeg d when d.slot < 0 -> Value.Null
  | Indeg d -> Value.Int (Graph.indegree inst.graph inst.ids.(d.slot) d.spec)
  | Outdeg d when d.slot < 0 -> Value.Null
  | Outdeg d -> Value.Int (Graph.outdegree inst.graph inst.ids.(d.slot) d.spec)

let cidrs_of_value v =
  match v with
  | Value.Str s -> ( match Cidr.of_string s with Some c -> [ c ] | None -> [])
  | Value.List items ->
      List.filter_map
        (fun item ->
          match item with Value.Str s -> Cidr.of_string s | _ -> None)
        items
  | _ -> []

let value_int = function Value.Int i -> Some i | _ -> None

let compare_values op v1 v2 =
  match op with
  | Check.Eq -> Value.equal v1 v2
  | Check.Ne -> not (Value.equal v1 v2)
  | Check.Le | Check.Ge | Check.Lt | Check.Gt -> (
      match (value_int v1, value_int v2) with
      | Some a, Some b -> (
          match op with
          | Check.Le -> a <= b
          | Check.Ge -> a >= b
          | Check.Lt -> a < b
          | Check.Gt -> a > b
          | Check.Eq | Check.Ne -> assert false)
      | _ -> false)

let eval_func f v1 v2 =
  match f with
  | Check.Overlap ->
      let cs1 = cidrs_of_value v1 and cs2 = cidrs_of_value v2 in
      List.exists (fun a -> List.exists (fun b -> Cidr.overlap a b) cs2) cs1
  | Check.Contain ->
      let cs1 = cidrs_of_value v1 and cs2 = cidrs_of_value v2 in
      cs1 <> [] && cs2 <> []
      && List.for_all
           (fun b -> List.exists (fun a -> Cidr.contains a b) cs1)
           cs2
  | Check.Length -> (
      let len =
        match v1 with
        | Value.List items -> Some (List.length items)
        | Value.Str s -> Some (String.length s)
        | _ -> None
      in
      match (len, value_int v2) with Some a, Some b -> a = b | _ -> false)

let conn inst (a : conn_end) (b : conn_end) =
  a.slot >= 0 && b.slot >= 0
  && Graph.conn inst.graph ~src:inst.ids.(a.slot) ~src_attr:a.stripped ~dst:inst.ids.(b.slot)
       ~dst_attr:b.stripped

let reach inst (a : node) (b : node) =
  a.slot >= 0 && b.slot >= 0 && Graph.path inst.graph inst.ids.(a.slot) inst.ids.(b.slot)

let rec eval inst = function
  | Conn (a, b) -> conn inst a b
  | Path (a, b) -> reach inst a b
  | Coconn ((a, b), (c, d)) -> conn inst a b && conn inst c d
  | Copath ((a, b), (c, d)) -> reach inst a b && reach inst c d
  | Cmp (op, t1, t2) -> compare_values op (value inst t1) (value inst t2)
  | Func (f, t1, t2) -> eval_func f (value inst t1) (value inst t2)
  | Not e -> not (eval inst e)
  | And es -> List.for_all (eval inst) es

(* --- enumeration --------------------------------------------------- *)

(* Bind every injective assignment of the slots to resources of their
   types, in binding order and program order, calling [visit] on each;
   [true] from [visit] stops the search, and is returned. *)
let assignments f inst visit =
  let n = Array.length f.btypes in
  let rec slot k =
    if k = n then visit inst
    else
      let rec next = function
        | [] -> false
        | r :: rest ->
            let id = Resource.id r in
            ((not (List.exists (fun j -> Resource.equal_id inst.ids.(j) id) f.same_type.(k)))
            && (bind inst k r;
                slot (k + 1)))
            || next rest
      in
      next (Graph.by_type inst.graph f.btypes.(k))
  in
  slot 0

(* Every index environment of the bound instance, in order: the product
   of each index variable's domain, the largest collection it indexes
   across the check's endpoints. Distinct index variables take
   pairwise-distinct positions: [rule[i]] and [rule[j]] never alias. *)
let index_envs f inst visit =
  let domain ienv endpoints x =
    List.fold_left
      (fun acc (slot, path) ->
        if slot < 0 then acc
        else
          match Path.index_range ~env:ienv path x inst.blocks.(slot) with
          | Some n -> max acc n
          | None -> acc)
      0 endpoints
  in
  let rec expand ienv = function
    | [] ->
        inst.ienv <- ienv;
        visit inst
    | (x, endpoints) :: rest ->
        let n = domain ienv endpoints x in
        let rec next i =
          i < n
          && ((not (List.exists (fun (_, j) -> j = i) ienv)) && expand (ienv @ [ (x, i) ]) rest
             || next (i + 1))
        in
        next 0
  in
  expand [] f.ivars

let violated f inst = eval inst f.cond && not (eval inst f.stmt)
let witnessed f inst = eval inst f.cond && eval inst f.stmt

let assignment_of f inst = Array.to_list (Array.mapi (fun k var -> (var, inst.ids.(k))) f.vars)

(* Search the assignments of [c] on [graph]: [visit] sees each one bound
   and returns [true] to stop. *)
let search ~defaults graph c visit =
  let f = form c in
  (* most checks bind a type the program lacks: no instance to set up *)
  if Array.for_all (fun ty -> Graph.by_type graph ty <> []) f.btypes then
    ignore (assignments f (empty_instance ~defaults ~overlay:[] graph f) (visit f))

let stats ?(defaults = no_defaults) graph c =
  let instances = ref 0 and cond_true = ref 0 and stmt_true = ref 0 and both_true = ref 0 in
  search ~defaults graph c (fun f inst ->
      index_envs f inst (fun inst ->
          let cond = eval inst f.cond and stmt = eval inst f.stmt in
          incr instances;
          if cond then incr cond_true;
          if stmt then incr stmt_true;
          if cond && stmt then incr both_true;
          false));
  { instances = !instances; cond_true = !cond_true; stmt_true = !stmt_true; both_true = !both_true }

let holds_slots ?(defaults = no_defaults) graph c slots =
  let f = form c in
  not
    (Array.for_all (fun ty -> Graph.by_type graph ty <> []) f.btypes
    && assignments f (empty_instance ~defaults ~overlay:slots graph f) (fun inst ->
           index_envs f inst (violated f)))

let holds ?defaults graph c = holds_slots ?defaults graph c []

let occurrences ?(defaults = no_defaults) graph c = (stats ~defaults graph c).cond_true

(* Assignments with some instance satisfying [pred], the last found
   first. *)
let collect ~defaults graph c pred =
  let found = ref [] in
  search ~defaults graph c (fun f inst ->
      if index_envs f inst (pred f) then found := assignment_of f inst :: !found;
      false);
  !found

let violations ?(defaults = no_defaults) graph c = collect ~defaults graph c violated
let witnesses ?(defaults = no_defaults) graph c = collect ~defaults graph c witnessed

let first ~defaults graph c pred =
  let found = ref None in
  search ~defaults graph c (fun f inst ->
      index_envs f inst (pred f)
      &&
      (found := Some (assignment_of f inst);
       true));
  !found

let first_witness ?(defaults = no_defaults) graph c = first ~defaults graph c witnessed
let first_violation ?(defaults = no_defaults) graph c = first ~defaults graph c violated

let bound ~defaults graph f assignment ienv =
  let inst = empty_instance ~defaults ~overlay:[] graph f in
  let prog = Graph.program graph in
  Array.iteri
    (fun k var ->
      match Option.bind (List.assoc_opt var assignment) (Program.find prog) with
      | Some r -> bind inst k r
      | None -> invalid_arg ("Eval.instance: no resource bound to " ^ var))
    f.vars;
  inst.ienv <- ienv;
  inst

let instance ?(defaults = no_defaults) graph c assignment ienv =
  bound ~defaults graph (form c) assignment ienv

let violating_index_env ?(defaults = no_defaults) graph c assignment =
  let f = form c in
  let inst = bound ~defaults graph f assignment [] in
  if index_envs f inst (violated f) then Some inst.ienv else None
