(* Cross-cutting property-based tests (qcheck): random programs and
   checks exercising the graph/evaluator/solver invariants. *)

module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Graph = Zodiac_iac.Graph
module Check = Zodiac_spec.Check
module Eval = Zodiac_spec.Eval
module Printer = Zodiac_spec.Spec_printer
module Parser = Zodiac_spec.Spec_parser
module Csp = Zodiac_solver.Csp
module Generator = Zodiac_corpus.Generator
module Prng = Zodiac_util.Prng

let provider = Zodiac_azure.Azure.provider

(* ------------- random program generator ------------------------------ *)

let gen_program =
  QCheck.Gen.(
    let* seed = int_bound 10_000 in
    let* n = int_range 2 10 in
    let rng = Prng.create seed in
    (* random resources of a tiny universe with random references *)
    let types = [| "A"; "B"; "C" |] in
    let resources =
      List.init n (fun i ->
          let ty = types.(Prng.int rng 3) in
          let name = Printf.sprintf "r%d" i in
          let attrs =
            [ ("name", Value.Str name); ("idx", Value.Int (Prng.int rng 5)) ]
            @
            (* reference an earlier resource half the time *)
            if i > 0 && Prng.bool rng then
              let j = Prng.int rng i in
              [ ("link", Value.reference types.(Prng.int rng 3) (Printf.sprintf "r%d" j) "id") ]
            else []
          in
          Resource.make ty name attrs)
    in
    return (Program.of_resources resources))

let program_arb = QCheck.make ~print:(fun p -> Format.asprintf "%a" Program.pp p) gen_program

(* ------------- graph invariants -------------------------------------- *)

let prop_degree_sum =
  QCheck.Test.make ~name:"sum of indegrees = sum of outdegrees = #edges" ~count:200
    program_arb (fun prog ->
      let g = Graph.build prog in
      let nodes = Graph.nodes g in
      let any = Graph.Not_type "\000impossible" in
      let in_sum = List.fold_left (fun acc v -> acc + Graph.indegree g v any) 0 nodes in
      let out_sum = List.fold_left (fun acc v -> acc + Graph.outdegree g v any) 0 nodes in
      let edges = List.length (Graph.edges g) in
      in_sum = edges && out_sum = edges)

let prop_edges_from_to_partition =
  QCheck.Test.make ~name:"every edge appears in exactly one edges_from and edges_to"
    ~count:200 program_arb (fun prog ->
      let g = Graph.build prog in
      List.for_all
        (fun (e : Graph.edge) ->
          List.memq e (Graph.edges_from g e.Graph.src)
          && List.memq e (Graph.edges_to g e.Graph.dst))
        (Graph.edges g))

let prop_reachability_transitive =
  QCheck.Test.make ~name:"reachable_from is transitively closed" ~count:100
    program_arb (fun prog ->
      let g = Graph.build prog in
      List.for_all
        (fun v ->
          let reach = Graph.reachable_from g v in
          List.for_all
            (fun w ->
              List.for_all
                (fun x ->
                  List.exists (Resource.equal_id x) reach)
                (Graph.reachable_from g w))
            reach)
        (Graph.nodes g))

let prop_topo_order_respects_edges =
  QCheck.Test.make ~name:"topological order puts referenced nodes first (DAGs)"
    ~count:200 program_arb (fun prog ->
      let g = Graph.build prog in
      (* our generator only references earlier resources: always a DAG *)
      let order = Graph.topological_order g in
      let pos v =
        let rec go i = function
          | [] -> max_int
          | x :: rest -> if Resource.equal_id x v then i else go (i + 1) rest
        in
        go 0 order
      in
      List.for_all (fun (e : Graph.edge) -> pos e.Graph.dst < pos e.Graph.src) (Graph.edges g))

(* ------------- evaluator invariants ---------------------------------- *)

let idx_check =
  Eval.compile (Parser.parse_exn "let r:A in r.idx >= 0 => r.idx <= 4")

let prop_holds_iff_no_violations =
  QCheck.Test.make ~name:"holds <=> violations empty" ~count:200 program_arb
    (fun prog ->
      let g = Graph.build prog in
      Eval.holds g idx_check = (Eval.violations g idx_check = []))

let prop_first_violation_consistent =
  QCheck.Test.make ~name:"first_violation agrees with violations" ~count:200
    program_arb (fun prog ->
      let g = Graph.build prog in
      (Eval.first_violation g idx_check <> None)
      = (Eval.violations g idx_check <> []))

let prop_stats_consistent =
  QCheck.Test.make ~name:"stats: both <= cond <= instances" ~count:200 program_arb
    (fun prog ->
      let g = Graph.build prog in
      let s = Eval.stats g idx_check in
      s.Eval.both_true <= s.Eval.cond_true
      && s.Eval.cond_true <= s.Eval.instances
      && s.Eval.stmt_true <= s.Eval.instances)

let prop_violations_witnesses_disjoint =
  QCheck.Test.make ~name:"an assignment cannot be both witness-only and violation"
    ~count:100 program_arb (fun prog ->
      let g = Graph.build prog in
      (* a single-instance check: each assignment is one instance, so
         witness and violation sets are disjoint *)
      let v = Eval.violations g idx_check in
      let w = Eval.witnesses g idx_check in
      List.for_all (fun a -> not (List.mem a w)) v)

(* ------------- corpus/cloud property ---------------------------------- *)

let prop_conforming_projects_deploy =
  QCheck.Test.make ~name:"conforming generator output always deploys" ~count:20
    QCheck.(int_bound 100_000) (fun seed ->
      let projects = Generator.conforming ~provider ~seed ~count:5 () in
      List.for_all
        (fun p ->
          Zodiac_cloud.Arm.success (Zodiac_cloud.Arm.deploy ~provider p.Generator.program))
        projects)

(* ------------- solver properties -------------------------------------- *)

let prop_solver_solution_satisfies_hard =
  QCheck.Test.make ~name:"solver solutions satisfy all hard constraints" ~count:100
    QCheck.(pair (int_bound 1000) (int_range 2 6))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let p = Csp.create () in
      let dom = List.init 3 (fun i -> Value.Int i) in
      let vars = List.init n (fun i -> Csp.new_var p ~name:(string_of_int i) dom) in
      (* random binary difference constraints *)
      let cons = ref [] in
      List.iteri
        (fun i x ->
          List.iteri
            (fun j y ->
              if i < j && Prng.chance rng 0.4 then begin
                let pred l = l x <> l y in
                cons := pred :: !cons;
                Csp.add_hard p ~name:(Printf.sprintf "c%d%d" i j) [ x; y ] pred
              end)
            vars)
        vars;
      match Csp.solve p with
      | None -> true (* UNSAT is acceptable; soundness checked below *)
      | Some sol ->
          let lookup v = Csp.value sol v in
          List.for_all (fun pred -> pred lookup) !cons)

let prop_solver_cost_counts_soft =
  QCheck.Test.make ~name:"solution cost >= 10 * violated soft constraints" ~count:100
    QCheck.(int_bound 1000) (fun seed ->
      let rng = Prng.create seed in
      let p = Csp.create () in
      let dom = [ Value.Int 0; Value.Int 1 ] in
      let vars = List.init 4 (fun i -> Csp.new_var p ~name:(string_of_int i) dom) in
      List.iteri
        (fun i x ->
          if Prng.bool rng then begin
            let wanted = Value.Int (Prng.int rng 2) in
            Csp.add_soft p ~name:(Printf.sprintf "s%d" i) ~weight:10 [ x ]
              (fun l -> l x = wanted)
          end)
        vars;
      match Csp.solve p with
      | None -> false (* soft-only problems are always SAT *)
      | Some sol -> Csp.cost sol >= 10 * List.length (Csp.violated_soft sol))

let () =
  Alcotest.run "properties"
    [
      ( "graph",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_degree_sum; prop_edges_from_to_partition;
            prop_reachability_transitive; prop_topo_order_respects_edges;
          ] );
      ( "eval",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_holds_iff_no_violations; prop_first_violation_consistent;
            prop_stats_consistent; prop_violations_witnesses_disjoint;
          ] );
      ( "corpus",
        List.map QCheck_alcotest.to_alcotest [ prop_conforming_projects_deploy ] );
      ( "solver",
        List.map QCheck_alcotest.to_alcotest
          [ prop_solver_solution_satisfies_hard; prop_solver_cost_counts_soft ] );
    ]
