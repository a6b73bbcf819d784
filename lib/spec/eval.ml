module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Graph = Zodiac_iac.Graph
module Path = Zodiac_iac.Path
module Cidr = Zodiac_util.Cidr

type assignment = (string * Resource.id) list

type defaults = rtype:string -> attr:string -> Value.t option

type stats = {
  instances : int;
  cond_true : int;
  stmt_true : int;
  both_true : int;
}

let no_defaults ~rtype:_ ~attr:_ = None

(* --- term and expression evaluation -------------------------------- *)

let lookup_resource graph env var =
  match List.assoc_opt var env with
  | None -> None
  | Some id -> Program.find (Graph.program graph) id

let term_value ?(defaults = no_defaults) graph env ienv term =
  match term with
  | Check.Const v -> v
  | Check.Attr { var; attr } -> (
      match lookup_resource graph env var with
      | None -> Value.Null
      | Some r -> (
          let path = Path.of_string attr in
          match Path.get ~env:ienv path (Value.Block r.Resource.attrs) with
          | Value.Null ->
              let stripped = Path.to_string (Path.strip path) in
              Option.value ~default:Value.Null (defaults ~rtype:r.Resource.rtype ~attr:stripped)
          | v -> v))
  | Check.Indeg (var, ty) -> (
      match List.assoc_opt var env with
      | None -> Value.Null
      | Some id -> Value.Int (Graph.indegree graph id ty))
  | Check.Outdeg (var, ty) -> (
      match List.assoc_opt var env with
      | None -> Value.Null
      | Some id -> Value.Int (Graph.outdegree graph id ty))

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

let endpoint_conn graph env (a : Check.endpoint) (b : Check.endpoint) =
  match (List.assoc_opt a.var env, List.assoc_opt b.var env) with
  | Some src, Some dst ->
      Graph.conn graph ~src ~src_attr:(Check.strip_indices a.attr) ~dst
        ~dst_attr:(Check.strip_indices b.attr)
  | _ -> false

let node_path graph env a b =
  match (List.assoc_opt a env, List.assoc_opt b env) with
  | Some x, Some y -> Graph.path graph x y
  | _ -> false

let rec eval_expr ?(defaults = no_defaults) graph env ienv expr =
  match expr with
  | Check.Conn (a, b) -> endpoint_conn graph env a b
  | Check.Path (a, b) -> node_path graph env a b
  | Check.Coconn ((a, b), (c, d)) ->
      endpoint_conn graph env a b && endpoint_conn graph env c d
  | Check.Copath ((a, b), (c, d)) -> node_path graph env a b && node_path graph env c d
  | Check.Cmp (op, t1, t2) ->
      compare_values op
        (term_value ~defaults graph env ienv t1)
        (term_value ~defaults graph env ienv t2)
  | Check.Func (f, t1, t2) ->
      eval_func f
        (term_value ~defaults graph env ienv t1)
        (term_value ~defaults graph env ienv t2)
  | Check.Not e -> not (eval_expr ~defaults graph env ienv e)
  | Check.And es -> List.for_all (eval_expr ~defaults graph env ienv) es

(* --- instance enumeration ------------------------------------------ *)

(* All injective assignments of bindings to resources of matching type. *)
let assignments graph (bindings : Check.binding list) =
  let prog = Graph.program graph in
  let rec extend env = function
    | [] -> [ List.rev env ]
    | (b : Check.binding) :: rest ->
        let candidates = Program.by_type prog b.btype in
        List.concat_map
          (fun r ->
            let id = Resource.id r in
            if List.exists (fun (_, id') -> Resource.equal_id id id') env then []
            else extend ((b.var, id) :: env) rest)
          candidates
  in
  extend [] bindings

(* Index environments for one assignment: the product of the domains of
   each index variable, where a variable's domain is the largest
   collection it indexes across all endpoints mentioning it. *)
let index_envs graph check =
  match Check.index_vars check with
  | [] -> fun _env -> [ [] ]
  | ivars ->
      (* parsed once per check, not once per assignment *)
      let endpoints =
        List.map
          (fun (e : Check.endpoint) -> (e.var, Path.of_string e.attr))
          (Check.attrs_of_expr check.Check.cond @ Check.attrs_of_expr check.Check.stmt)
      in
      fun env ->
        let domain ienv ivar =
          List.fold_left
            (fun acc (var, path) ->
              match lookup_resource graph env var with
              | None -> acc
              | Some r -> (
                  match Path.index_range ~env:ienv path ivar (Value.Block r.Resource.attrs) with
                  | Some n -> max acc n
                  | None -> acc))
            0 endpoints
        in
        (* Distinct index variables range over pairwise-distinct positions:
           [rule[i]] vs [rule[j]] never aliases the same element. *)
        let rec expand ienvs = function
          | [] -> ienvs
          | ivar :: rest ->
              let ienvs =
                List.concat_map
                  (fun ienv ->
                    let n = domain ienv ivar in
                    if n = 0 then []
                    else
                      List.filter_map
                        (fun i ->
                          if List.exists (fun (_, j) -> j = i) ienv then None
                          else Some (ienv @ [ (ivar, i) ]))
                        (List.init n Fun.id))
                  ienvs
              in
              expand ienvs rest
        in
        expand [ [] ] ivars

let fold_instances ?(defaults = no_defaults) graph check f init =
  match assignments graph check.Check.bindings with
  | [] -> init
  | envs ->
      let index_envs = index_envs graph check in
      List.fold_left
        (fun acc env ->
          List.fold_left
            (fun acc ienv ->
              let cond = eval_expr ~defaults graph env ienv check.Check.cond in
              let stmt = eval_expr ~defaults graph env ienv check.Check.stmt in
              f acc env cond stmt)
            acc (index_envs env))
        init envs

let stats ?(defaults = no_defaults) graph check =
  fold_instances ~defaults graph check
    (fun acc _env cond stmt ->
      {
        instances = acc.instances + 1;
        cond_true = (acc.cond_true + if cond then 1 else 0);
        stmt_true = (acc.stmt_true + if stmt then 1 else 0);
        both_true = (acc.both_true + if cond && stmt then 1 else 0);
      })
    { instances = 0; cond_true = 0; stmt_true = 0; both_true = 0 }

let holds ?(defaults = no_defaults) graph check =
  fold_instances ~defaults graph check
    (fun acc _env cond stmt -> acc && ((not cond) || stmt))
    true

let occurrences ?(defaults = no_defaults) graph check =
  (stats ~defaults graph check).cond_true

let dedup_assignments envs =
  List.fold_left (fun acc env -> if List.mem env acc then acc else env :: acc) [] envs
  |> List.rev

let violations ?(defaults = no_defaults) graph check =
  fold_instances ~defaults graph check
    (fun acc env cond stmt -> if cond && not stmt then env :: acc else acc)
    []
  |> dedup_assignments

let witnesses ?(defaults = no_defaults) graph check =
  fold_instances ~defaults graph check
    (fun acc env cond stmt -> if cond && stmt then env :: acc else acc)
    []
  |> dedup_assignments

exception Found of assignment

let first_matching ~defaults graph check pred =
  match
    fold_instances ~defaults graph check
      (fun () env cond stmt -> if pred cond stmt then raise (Found env))
      ()
  with
  | () -> None
  | exception Found env -> Some env

let first_witness ?(defaults = no_defaults) graph check =
  first_matching ~defaults graph check (fun cond stmt -> cond && stmt)

let first_violation ?(defaults = no_defaults) graph check =
  first_matching ~defaults graph check (fun cond stmt -> cond && not stmt)

let violating_index_env ?(defaults = no_defaults) graph check env =
  List.find_opt
    (fun ienv ->
      eval_expr ~defaults graph env ienv check.Check.cond
      && not (eval_expr ~defaults graph env ienv check.Check.stmt))
    (index_envs graph check env)
