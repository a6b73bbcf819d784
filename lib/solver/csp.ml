module Value = Zodiac_iac.Value

type var = int

type constraint_ = {
  cname : string;
  scope : var list;
  pred : (var -> Value.t) -> bool;
  weight : int option;  (* None = hard *)
}

type problem = {
  mutable domains : Value.t array array;  (* var -> candidate values *)
  mutable value_costs : (Value.t -> int) array;
  mutable priorities : int array;  (* lower = assigned earlier *)
  mutable nvars : int;
  mutable constraints : constraint_ list;
  mutable nodes : int;
}

let initial_capacity = 16

let create () =
  {
    domains = Array.make initial_capacity [||];
    value_costs = Array.make initial_capacity (fun _ -> 0);
    priorities = Array.make initial_capacity 1;
    nvars = 0;
    constraints = [];
    nodes = 0;
  }

let ensure_capacity p =
  if p.nvars >= Array.length p.domains then begin
    let n = 2 * Array.length p.domains in
    let grow a fill =
      let b = Array.make n fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    p.domains <- grow p.domains [||];
    p.value_costs <- grow p.value_costs (fun _ -> 0);
    p.priorities <- grow p.priorities 1
  end

let new_var p ~name values =
  if values = [] then invalid_arg (Printf.sprintf "Csp.new_var %s: empty domain" name);
  ensure_capacity p;
  let v = p.nvars in
  p.domains.(v) <- Array.of_list values;
  p.nvars <- p.nvars + 1;
  v

let set_value_cost p v cost = p.value_costs.(v) <- cost

let set_priority p v priority = p.priorities.(v) <- priority

let add_hard p ~name scope pred =
  p.constraints <- { cname = name; scope; pred; weight = None } :: p.constraints

let add_soft p ~name ~weight scope pred =
  p.constraints <- { cname = name; scope; pred; weight = Some weight } :: p.constraints

type solution = {
  values : Value.t array;
  total_cost : int;
  violated : string list;
}

let value s v = s.values.(v)
let cost s = s.total_cost
let violated_soft s = s.violated

exception Good_enough

(* A constraint's verdicts in one solve, keyed by the value indices its
   scope takes: packed into one int as a mixed-radix number when the
   product of the scope's domain sizes fits, else the index tuple. *)
type verdicts =
  | Packed of int array * (int, bool) Hashtbl.t  (* radix weight per scope position *)
  | Tuples of (int array, bool) Hashtbl.t

let verdicts_for domains scope =
  let rec weights acc w = function
    | [] -> Some (Array.of_list (List.rev acc))
    | v :: rest ->
        let size = Array.length domains.(v) in
        if w > max_int / size then None else weights (w :: acc) (w * size) rest
  in
  match weights [] 1 scope with
  | Some radix -> Packed (radix, Hashtbl.create 16)
  | None -> Tuples (Hashtbl.create 16)

let solve ?(node_budget = 200_000) ?(good_enough = min_int) p =
  p.nodes <- 0;
  let n = p.nvars in
  let domains = p.domains in
  (* Each variable's value indices, cheapest first, ties in domain
     order; a value's cost is asked for once per solve. *)
  let order = Array.make n [||] and order_cost = Array.make n [||] in
  for v = 0 to n - 1 do
    let costs = Array.map p.value_costs.(v) domains.(v) in
    let idx = Array.init (Array.length costs) Fun.id in
    Array.stable_sort (fun i j -> Int.compare costs.(i) costs.(j)) idx;
    order.(v) <- idx;
    order_cost.(v) <- Array.map (fun i -> costs.(i)) idx
  done;
  (* value index of each variable, -1 while unassigned *)
  let current = Array.make n (-1) in
  let lookup v =
    let i = current.(v) in
    if i < 0 then invalid_arg "Csp: a predicate read a variable outside its scope"
    else domains.(v).(i)
  in
  let constraints = Array.of_list (List.rev p.constraints) in
  let scopes = Array.map (fun c -> Array.of_list c.scope) constraints in
  let verdicts = Array.map (fun c -> verdicts_for domains c.scope) constraints in
  let verdict ci =
    let scope = scopes.(ci) in
    let eval tbl key =
      match Hashtbl.find_opt tbl key with
      | Some ok -> ok
      | None ->
          let ok = constraints.(ci).pred lookup in
          Hashtbl.add tbl key ok;
          ok
    in
    match verdicts.(ci) with
    | Packed (radix, tbl) ->
        let key = ref 0 in
        Array.iteri (fun k v -> key := !key + (current.(v) * radix.(k))) scope;
        eval tbl !key
    | Tuples tbl -> eval tbl (Array.map (fun v -> current.(v)) scope)
  in
  (* Per variable, the constraints whose scope holds it, once per
     occurrence; per constraint, its unassigned scope occurrences. *)
  let relevant = Array.make n [] in
  Array.iteri (fun ci scope -> Array.iter (fun v -> relevant.(v) <- ci :: relevant.(v)) scope) scopes;
  let unassigned = Array.map Array.length scopes in
  (* weight of the violated soft constraints among [cis]; None when a
     hard one is violated *)
  let rec penalty acc = function
    | [] -> Some acc
    | ci :: rest -> (
        if verdict ci then penalty acc rest
        else
          match constraints.(ci).weight with
          | None -> None
          | Some w -> penalty (acc + w) rest)
  in
  let best : solution option ref = ref None in
  let best_cost () = match !best with Some s -> s.total_cost | None -> max_int in
  (* A complete assignment: every constraint with a non-empty scope was
     decided (and every hard one held) on the way down; one with an
     empty scope is only looked at here, and its weight is never
     charged. *)
  let leaf total =
    let hard_ok = ref true in
    Array.iteri
      (fun ci c ->
        if Option.is_none c.weight && Array.length scopes.(ci) = 0 && not (verdict ci) then
          hard_ok := false)
      constraints;
    if !hard_ok && total < best_cost () then begin
      let violated = ref [] in
      for ci = Array.length constraints - 1 downto 0 do
        if Option.is_some constraints.(ci).weight && not (verdict ci) then
          violated := constraints.(ci).cname :: !violated
      done;
      best :=
        Some
          {
            values = Array.init n (fun v -> domains.(v).(current.(v)));
            total_cost = total;
            violated = !violated;
          };
      if total <= good_enough then raise Good_enough
    end
  in
  (* [lower_bound]: value costs of the assigned variables plus weights
     of violated soft constraints they decide — a monotone lower bound
     on any completion. *)
  let rec search lower_bound =
    if p.nodes < node_budget then begin
      p.nodes <- p.nodes + 1;
      if lower_bound < best_cost () then begin
        (* pick the unassigned var with the lowest priority class,
           breaking ties by smallest domain (variables constrained by
           the problem's focus come first, avoiding thrash on unrelated
           variables deep in the tree) *)
        let pick = ref (-1) in
        let pick_prio = ref max_int and pick_size = ref max_int in
        for v = 0 to n - 1 do
          if current.(v) < 0 then begin
            let prio = p.priorities.(v) and size = Array.length domains.(v) in
            if prio < !pick_prio || (prio = !pick_prio && size < !pick_size) then begin
              pick := v;
              pick_prio := prio;
              pick_size := size
            end
          end
        done;
        if !pick < 0 then leaf lower_bound
        else begin
          let v = !pick in
          List.iter (fun ci -> unassigned.(ci) <- unassigned.(ci) - 1) relevant.(v);
          (* the constraints assigning [v] decides, whatever its value *)
          let decided = List.filter (fun ci -> unassigned.(ci) = 0) relevant.(v) in
          let idx = order.(v) and costs = order_cost.(v) in
          let k = ref 0 in
          (* once the budget is spent, no further node can change [best] *)
          while !k < Array.length idx && p.nodes < node_budget do
            current.(v) <- idx.(!k);
            (match penalty 0 decided with
            | Some pen -> search (lower_bound + costs.(!k) + pen)
            | None -> ());
            incr k
          done;
          current.(v) <- -1;
          List.iter (fun ci -> unassigned.(ci) <- unassigned.(ci) + 1) relevant.(v)
        end
      end
    end
  in
  (try search 0 with Good_enough -> ());
  !best

let stats_nodes p = p.nodes
