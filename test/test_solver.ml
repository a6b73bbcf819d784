(* Tests for the finite-domain Max-CSP solver. *)

module Csp = Zodiac_solver.Csp
module Value = Zodiac_iac.Value

(* The solver before it searched on value indices, verbatim: it re-sorts
   each domain at every node, re-filters a variable's constraints per
   value and evaluates every constraint at a complete assignment, with
   no verdict cache. [Csp.solve] must explore the same tree: the
   "reference" tests compare solutions, costs and node counts. *)
module Reference = struct
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
    mutable names : string array;
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
      names = Array.make initial_capacity "";
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
      p.names <- grow p.names "";
      p.value_costs <- grow p.value_costs (fun _ -> 0);
      p.priorities <- grow p.priorities 1
    end

  let new_var p ~name values =
    if values = [] then invalid_arg (Printf.sprintf "Csp.new_var %s: empty domain" name);
    ensure_capacity p;
    let v = p.nvars in
    p.domains.(v) <- Array.of_list values;
    p.names.(v) <- name;
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

  exception Found_infeasible

  exception Good_enough

  let solve ?(node_budget = 200_000) ?(good_enough = min_int) p =
    p.nodes <- 0;
    let n = p.nvars in
    let assignment = Array.make (max n 1) Value.Null in
    let assigned = Array.make (max n 1) false in
    let lookup v =
      if assigned.(v) then assignment.(v) else raise Found_infeasible
    in
    (* A constraint is decided when all scope vars are assigned. *)
    let check_decided c =
      match c.pred lookup with
      | ok -> Some ok
      | exception Found_infeasible -> None
    in
    let constraints = Array.of_list (List.rev p.constraints) in
    (* Per-variable constraint index for quick relevance tests. *)
    let relevant = Array.make (max n 1) [] in
    Array.iter
      (fun c -> List.iter (fun v -> relevant.(v) <- c :: relevant.(v)) c.scope)
      constraints;
    let best : solution option ref = ref None in
    let best_cost () = match !best with Some s -> s.total_cost | None -> max_int in
    (* Penalty of soft constraints already fully decided + value costs of
       assigned vars — a monotone lower bound on any completion. *)
    let rec search depth lower_bound =
      if p.nodes < node_budget then begin
        p.nodes <- p.nodes + 1;
        if lower_bound < best_cost () then begin
          (* pick the unassigned var with the lowest priority class,
             breaking ties by smallest domain (variables constrained by
             the problem's focus come first, avoiding thrash on unrelated
             variables deep in the tree) *)
          let pick = ref (-1) in
          let pick_key = ref (max_int, max_int) in
          for v = 0 to n - 1 do
            if not assigned.(v) then begin
              let key = (p.priorities.(v), Array.length p.domains.(v)) in
              if key < !pick_key then begin
                pick := v;
                pick_key := key
              end
            end
          done;
          if !pick < 0 then begin
            (* complete assignment *)
            let violated =
              Array.to_list constraints
              |> List.filter_map (fun c ->
                     match (c.weight, check_decided c) with
                     | Some _, Some false -> Some c.cname
                     | _ -> None)
            in
            if
              Array.for_all
                (fun c ->
                  match (c.weight, check_decided c) with
                  | None, Some ok -> ok
                  | None, None -> false
                  | Some _, _ -> true)
                constraints
            then begin
              let total = lower_bound in
              if total < best_cost () then begin
                best :=
                  Some { values = Array.copy assignment; total_cost = total; violated };
                if total <= good_enough then raise Good_enough
              end
            end
          end
          else begin
            let v = !pick in
            (* order values by their cost, cheapest first *)
            let values =
              Array.to_list p.domains.(v)
              |> List.map (fun value -> (p.value_costs.(v) value, value))
              |> List.stable_sort (fun (c1, _) (c2, _) -> Int.compare c1 c2)
            in
            List.iter
              (fun (vcost, value) ->
                assignment.(v) <- value;
                assigned.(v) <- true;
                (* consistency of newly decided constraints + new penalty *)
                let feasible = ref true in
                let penalty = ref 0 in
                List.iter
                  (fun c ->
                    if List.for_all (fun w -> assigned.(w)) c.scope then
                      (* newly decided iff v is the last assigned in scope *)
                      match check_decided c with
                      | Some ok ->
                          if not ok then begin
                            match c.weight with
                            | None -> feasible := false
                            | Some w ->
                                (* charge only when v completes the scope *)
                                let completes =
                                  List.for_all
                                    (fun w' -> w' = v || assigned.(w'))
                                    c.scope
                                in
                                if completes then penalty := !penalty + w
                          end
                      | None -> ())
                  (List.filter
                     (fun c ->
                       (* decided now, and v is in scope (so decided by this
                          assignment, not earlier) *)
                       List.mem v c.scope
                       && List.for_all (fun w -> assigned.(w)) c.scope)
                     relevant.(v));
                if !feasible then search (depth + 1) (lower_bound + vcost + !penalty);
                assigned.(v) <- false)
              values
          end
        end
      end
    in
    (try search 0 0 with Good_enough -> ());
    !best

  let stats_nodes p = p.nodes
end

let s v = Value.Str v

(* helper: look up inside a constraint predicate *)
let v l x = l x

let test_unsat () =
  let p = Csp.create () in
  let x = Csp.new_var p ~name:"x" [ s "a" ] in
  Csp.add_hard p ~name:"impossible" [ x ] (fun l -> v l x = s "b");
  Alcotest.(check bool) "unsat" true (Csp.solve p = None)

let test_all_different_coloring () =
  (* 3-coloring of a triangle *)
  let p = Csp.create () in
  let colors = [ s "r"; s "g"; s "b" ] in
  let a = Csp.new_var p ~name:"a" colors in
  let b = Csp.new_var p ~name:"b" colors in
  let c = Csp.new_var p ~name:"c" colors in
  let diff name x y = Csp.add_hard p ~name [ x; y ] (fun l -> v l x <> v l y) in
  diff "ab" a b;
  diff "bc" b c;
  diff "ac" a c;
  match Csp.solve p with
  | Some sol ->
      let va = Csp.value sol a and vb = Csp.value sol b and vc = Csp.value sol c in
      Alcotest.(check bool) "all distinct" true (va <> vb && vb <> vc && va <> vc)
  | None -> Alcotest.fail "triangle is 3-colorable"

let test_pigeonhole_unsat () =
  (* 3 pigeons, 2 holes, all-different: UNSAT *)
  let p = Csp.create () in
  let holes = [ Value.Int 0; Value.Int 1 ] in
  let xs = List.init 3 (fun i -> Csp.new_var p ~name:(string_of_int i) holes) in
  List.iteri
    (fun i x ->
      List.iteri
        (fun j y ->
          if i < j then
            Csp.add_hard p ~name:(Printf.sprintf "d%d%d" i j) [ x; y ] (fun l ->
                v l x <> v l y))
        xs)
    xs;
  Alcotest.(check bool) "unsat" true (Csp.solve p = None)

let test_value_costs_minimized () =
  let p = Csp.create () in
  let x = Csp.new_var p ~name:"x" [ s "cheap"; s "pricey" ] in
  Csp.set_value_cost p x (fun value -> if value = s "pricey" then 5 else 0);
  match Csp.solve p with
  | Some sol ->
      Alcotest.(check bool) "picks cheap" true (Csp.value sol x = s "cheap");
      Alcotest.(check int) "zero cost" 0 (Csp.cost sol)
  | None -> Alcotest.fail "sat expected"

let test_cost_vs_hard () =
  (* the hard constraint forces the costly value *)
  let p = Csp.create () in
  let x = Csp.new_var p ~name:"x" [ s "cheap"; s "pricey" ] in
  Csp.set_value_cost p x (fun value -> if value = s "pricey" then 5 else 0);
  Csp.add_hard p ~name:"force" [ x ] (fun l -> v l x = s "pricey");
  match Csp.solve p with
  | Some sol -> Alcotest.(check int) "cost paid" 5 (Csp.cost sol)
  | None -> Alcotest.fail "sat expected"

let test_soft_constraints () =
  let p = Csp.create () in
  let x = Csp.new_var p ~name:"x" [ s "a"; s "b" ] in
  let y = Csp.new_var p ~name:"y" [ s "a"; s "b" ] in
  (* two incompatible soft constraints: satisfy the heavier *)
  Csp.add_soft p ~name:"want-xa" ~weight:1 [ x ] (fun l -> v l x = s "a");
  Csp.add_soft p ~name:"want-xb" ~weight:10 [ x ] (fun l -> v l x = s "b");
  Csp.add_soft p ~name:"want-ya" ~weight:3 [ y ] (fun l -> v l y = s "a");
  match Csp.solve p with
  | Some sol ->
      Alcotest.(check bool) "x=b (heavier)" true (Csp.value sol x = s "b");
      Alcotest.(check bool) "y=a" true (Csp.value sol y = s "a");
      Alcotest.(check (list string)) "violated light one" [ "want-xa" ]
        (Csp.violated_soft sol);
      Alcotest.(check int) "cost = weight 1" 1 (Csp.cost sol)
  | None -> Alcotest.fail "sat expected"

let test_soft_never_unsat () =
  let p = Csp.create () in
  let x = Csp.new_var p ~name:"x" [ s "a" ] in
  Csp.add_soft p ~name:"impossible" ~weight:100 [ x ] (fun l -> v l x = s "b");
  match Csp.solve p with
  | Some sol -> Alcotest.(check int) "pays the weight" 100 (Csp.cost sol)
  | None -> Alcotest.fail "soft constraints must not cause UNSAT"

let test_multi_scope_constraint () =
  let p = Csp.create () in
  let xs = List.init 4 (fun i -> Csp.new_var p ~name:(string_of_int i) [ Value.Int 0; Value.Int 1 ]) in
  (* sum of all four variables = 2 *)
  Csp.add_hard p ~name:"sum2" xs (fun l ->
      List.fold_left
        (fun acc x -> acc + match v l x with Value.Int i -> i | _ -> 0)
        0 xs
      = 2);
  match Csp.solve p with
  | Some sol ->
      let sum =
        List.fold_left
          (fun acc x -> acc + match Csp.value sol x with Value.Int i -> i | _ -> 0)
          0 xs
      in
      Alcotest.(check int) "sum is 2" 2 sum
  | None -> Alcotest.fail "sat expected"

let test_good_enough_stops () =
  let p = Csp.create () in
  let xs =
    List.init 10 (fun i -> Csp.new_var p ~name:(string_of_int i) [ Value.Int 0; Value.Int 1 ])
  in
  List.iter (fun x -> Csp.set_value_cost p x (fun value -> if value = Value.Int 1 then 1 else 0)) xs;
  (match Csp.solve ~good_enough:0 p with
  | Some sol -> Alcotest.(check int) "optimal immediately" 0 (Csp.cost sol)
  | None -> Alcotest.fail "sat expected");
  Alcotest.(check bool) "few nodes" true (Csp.stats_nodes p <= 12)

let test_priority_ordering () =
  (* the prioritized variable is decided first, so an early conflict on
     it prunes immediately instead of after exploring the others *)
  let p = Csp.create () in
  let key = Csp.new_var p ~name:"key" [ s "bad"; s "good" ] in
  let _noise =
    List.init 8 (fun i -> Csp.new_var p ~name:(Printf.sprintf "n%d" i) [ Value.Int 0; Value.Int 1 ])
  in
  Csp.set_priority p key 0;
  Csp.add_hard p ~name:"key-good" [ key ] (fun l -> v l key = s "good");
  match Csp.solve ~good_enough:0 p with
  | Some sol ->
      Alcotest.(check bool) "good" true (Csp.value sol key = s "good");
      Alcotest.(check bool) "cheap search" true (Csp.stats_nodes p < 30)
  | None -> Alcotest.fail "sat expected"

let test_node_budget_respected () =
  let p = Csp.create () in
  let xs =
    List.init 20 (fun i -> Csp.new_var p ~name:(string_of_int i) [ Value.Int 0; Value.Int 1 ])
  in
  (* unsatisfiable parity-ish constraint over everything, forcing
     exhaustive search beyond the budget *)
  Csp.add_hard p ~name:"impossible" xs (fun l ->
      List.fold_left
        (fun acc x -> acc + match v l x with Value.Int i -> i | _ -> 0)
        0 xs
      = 50);
  let _ = Csp.solve ~node_budget:500 p in
  Alcotest.(check bool) "budget respected" true (Csp.stats_nodes p <= 501)

let test_empty_domain_rejected () =
  let p = Csp.create () in
  match Csp.new_var p ~name:"x" [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty domain must be rejected"

let test_deterministic () =
  let solve_once () =
    let p = Csp.create () in
    let xs =
      List.init 6 (fun i ->
          Csp.new_var p ~name:(string_of_int i) [ s "a"; s "b"; s "c" ])
    in
    List.iteri
      (fun i x ->
        List.iteri
          (fun j y ->
            if j = i + 1 then
              Csp.add_hard p ~name:(Printf.sprintf "d%d" i) [ x; y ] (fun l ->
                  v l x <> v l y))
          xs)
      xs;
    match Csp.solve p with
    | Some sol -> List.map (Csp.value sol) xs
    | None -> []
  in
  Alcotest.(check bool) "same solution twice" true (solve_once () = solve_once ())

(* ---- reference oracle ------------------------------------------- *)

(* A random problem, built identically into [Csp] and [Reference]. A
   constraint's predicate is a fixed pseudo-random function of its
   scope's values. *)
type con = { hard : bool; weight : int; scope : int list; salt : int }

type spec = {
  domains : (int * int) list array;  (* per variable: (value, cost) *)
  priorities : int array;
  cons : con list;
  node_budget : int option;
  good_enough : int option;
}

let print_spec s =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "domains=[%s] priorities=[%s] cons=[%s] budget=%s good_enough=%s"
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun d -> String.concat "," (List.map (fun (v, c) -> Printf.sprintf "%d:%d" v c) d))
             s.domains)))
    (ints (Array.to_list s.priorities))
    (String.concat "; "
       (List.map
          (fun c ->
            Printf.sprintf "%s w%d [%s] #%d" (if c.hard then "hard" else "soft") c.weight
              (ints c.scope) c.salt)
          s.cons))
    (Option.fold ~none:"-" ~some:string_of_int s.node_budget)
    (Option.fold ~none:"-" ~some:string_of_int s.good_enough)

let gen_spec =
  QCheck.Gen.(
    let* n = int_range 1 8 in
    let* domains =
      array_repeat n
        (let* size = int_range 1 5 in
         let* costs = list_repeat size (int_range 0 3) in
         return (List.mapi (fun i c -> (i * 7, c)) costs))
    in
    let* priorities = array_repeat n (int_range 0 2) in
    let gen_con =
      let* hard = bool in
      let* weight = int_range 1 10 in
      let* arity = frequency [ (1, return 0); (12, int_range 1 3) ] in
      let* scope = list_repeat arity (int_bound (n - 1)) in
      let* repeat = int_bound 5 in
      (* now and then name a scope variable twice *)
      let scope = match scope with v :: _ when repeat = 0 -> v :: scope | _ -> scope in
      let* salt = int_bound 1_000_000 in
      return { hard; weight; scope; salt }
    in
    let* cons = list_size (int_range 0 8) gen_con in
    let* node_budget =
      frequency
        [ (3, map Option.some (int_range 1 40)); (2, return (Some 3000));
          (if n <= 5 then 1 else 0), return None ]
    in
    let* good_enough = frequency [ (2, return None); (1, map Option.some (int_range 0 8)) ] in
    return { domains; priorities; cons; node_budget; good_enough })

let arb_spec = QCheck.make ~print:print_spec gen_spec

(* Hard constraints hold about two times in three, soft ones one in two. *)
let verdict c values =
  Hashtbl.hash (c.salt, values) mod (if c.hard then 3 else 2) <> 0

let con_name i c = Printf.sprintf "%s%d" (if c.hard then "h" else "s") i

let int_of = function Value.Int i -> i | _ -> assert false

(* [on_call] sees each predicate call: constraint index, scope values. *)
let build_csp ?(on_call = fun _ _ -> ()) s =
  let p = Csp.create () in
  let vars =
    Array.mapi
      (fun i d -> Csp.new_var p ~name:(string_of_int i) (List.map (fun (v, _) -> Value.Int v) d))
      s.domains
  in
  Array.iteri
    (fun i d ->
      Csp.set_value_cost p vars.(i) (fun v -> List.assoc (int_of v) d);
      Csp.set_priority p vars.(i) s.priorities.(i))
    s.domains;
  List.iteri
    (fun i c ->
      let scope = List.map (fun v -> vars.(v)) c.scope in
      let pred l =
        let values = List.map (fun x -> int_of (l x)) scope in
        on_call i values;
        verdict c values
      in
      if c.hard then Csp.add_hard p ~name:(con_name i c) scope pred
      else Csp.add_soft p ~name:(con_name i c) ~weight:c.weight scope pred)
    s.cons;
  (p, vars)

let build_reference s =
  let p = Reference.create () in
  let vars =
    Array.mapi
      (fun i d ->
        Reference.new_var p ~name:(string_of_int i) (List.map (fun (v, _) -> Value.Int v) d))
      s.domains
  in
  Array.iteri
    (fun i d ->
      Reference.set_value_cost p vars.(i) (fun v -> List.assoc (int_of v) d);
      Reference.set_priority p vars.(i) s.priorities.(i))
    s.domains;
  List.iteri
    (fun i c ->
      let scope = List.map (fun v -> vars.(v)) c.scope in
      let pred l = verdict c (List.map (fun x -> int_of (l x)) scope) in
      if c.hard then Reference.add_hard p ~name:(con_name i c) scope pred
      else Reference.add_soft p ~name:(con_name i c) ~weight:c.weight scope pred)
    s.cons;
  (p, vars)

(* Both solvers' outcome: per-variable values, cost and violated soft
   constraints of the solution, if any, and the node count. *)
let outcomes s =
  let p, vars = build_csp s in
  let r, rvars = build_reference s in
  let got =
    Csp.solve ?node_budget:s.node_budget ?good_enough:s.good_enough p
    |> Option.map (fun sol ->
           ( Array.to_list (Array.map (Csp.value sol) vars),
             Csp.cost sol,
             Csp.violated_soft sol ))
  in
  let want =
    Reference.solve ?node_budget:s.node_budget ?good_enough:s.good_enough r
    |> Option.map (fun sol ->
           ( Array.to_list (Array.map (Reference.value sol) rvars),
             Reference.cost sol,
             Reference.violated_soft sol ))
  in
  ((got, Csp.stats_nodes p), (want, Reference.stats_nodes r))

let solve_matches_reference =
  QCheck.Test.make ~name:"solve = reference solver" ~count:3000 arb_spec (fun s ->
      let got, want = outcomes s in
      got = want)

(* Predicate calls per (constraint, scope values) in one solve. *)
let max_calls s =
  let calls = Hashtbl.create 64 in
  let on_call i values =
    Hashtbl.replace calls (i, values) (1 + Option.value ~default:0 (Hashtbl.find_opt calls (i, values)))
  in
  let p, _ = build_csp ~on_call s in
  ignore (Csp.solve ?node_budget:s.node_budget ?good_enough:s.good_enough p);
  Hashtbl.fold (fun _ n acc -> max n acc) calls 0

let one_call_per_scope_assignment =
  QCheck.Test.make ~name:"a predicate runs once per scope assignment" ~count:1000 arb_spec
    (fun s -> max_calls s <= 1)

(* 40 variables of 5 values: the product of the domain sizes overflows
   an int, so the verdicts of the constraint over all of them cannot be
   keyed by one mixed-radix number. *)
let test_wide_scope () =
  let wide = List.init 40 Fun.id in
  let s =
    {
      domains = Array.init 40 (fun i -> List.init 5 (fun v -> (v * 7, (v + i) mod 3)));
      priorities = Array.make 40 1;
      cons =
        [
          { hard = true; weight = 1; scope = wide; salt = 11 };
          { hard = false; weight = 4; scope = wide @ [ 3 ]; salt = 12 };
          { hard = true; weight = 1; scope = [ 0; 39 ]; salt = 13 };
        ];
      node_budget = Some 4000;
      good_enough = None;
    }
  in
  let (got, nodes), (want, ref_nodes) = outcomes s in
  Alcotest.(check bool) "a solution" true (got <> None);
  Alcotest.(check bool) "same solution as the reference" true (got = want);
  Alcotest.(check int) "same node count" ref_nodes nodes;
  Alcotest.(check int) "one call per scope assignment" 1 (max_calls s)

let () =
  Alcotest.run "solver"
    [
      ( "csp",
        [
          Alcotest.test_case "unsat" `Quick test_unsat;
          Alcotest.test_case "triangle coloring" `Quick test_all_different_coloring;
          Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
          Alcotest.test_case "value costs" `Quick test_value_costs_minimized;
          Alcotest.test_case "cost vs hard" `Quick test_cost_vs_hard;
          Alcotest.test_case "soft constraints" `Quick test_soft_constraints;
          Alcotest.test_case "soft never unsat" `Quick test_soft_never_unsat;
          Alcotest.test_case "multi-var scope" `Quick test_multi_scope_constraint;
          Alcotest.test_case "good-enough early stop" `Quick test_good_enough_stops;
          Alcotest.test_case "priority ordering" `Quick test_priority_ordering;
          Alcotest.test_case "node budget" `Quick test_node_budget_respected;
          Alcotest.test_case "empty domain" `Quick test_empty_domain_rejected;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
        ] );
      ( "reference",
        [
          QCheck_alcotest.to_alcotest solve_matches_reference;
          QCheck_alcotest.to_alcotest one_call_per_scope_assignment;
          Alcotest.test_case "scope wider than an int key" `Quick test_wide_scope;
        ] );
    ]
