module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Graph = Zodiac_iac.Graph

type t = {
  check : Check.t;
  assignment : Eval.assignment;
  bindings : (string * string) list;
  explanation : string;
}

(* Render a term together with its actual value in the instance. *)
let term_with_value inst term =
  let value = Value.to_string (Eval.value inst term) in
  let spec = function Graph.Type t -> t | Graph.Not_type t -> "!" ^ t in
  match term with
  | Eval.Const _ -> value
  | Eval.Attr { endpoint = { Check.var; attr }; _ } -> Printf.sprintf "%s.%s = %s" var attr value
  | Eval.Indeg d -> Printf.sprintf "indegree(%s, %s) = %s" d.var (spec d.spec) value
  | Eval.Outdeg d -> Printf.sprintf "outdegree(%s, %s) = %s" d.var (spec d.spec) value

let cmp_expectation = function
  | Check.Eq -> "expected them to be equal"
  | Check.Ne -> "expected them to differ"
  | Check.Le -> "expected the first to be at most the second"
  | Check.Ge -> "expected the first to be at least the second"
  | Check.Lt -> "expected the first to be below the second"
  | Check.Gt -> "expected the first to be above the second"

(* Explain the (sub)expression that actually fails. *)
let rec explain inst expr =
  let tv = term_with_value inst in
  match expr with
  | Eval.And es -> (
      match List.find_opt (fun e -> not (Eval.eval inst e)) es with
      | Some failing -> explain inst failing
      | None -> "all conjuncts hold")
  | Eval.Not inner ->
      Printf.sprintf "%s — but it must not"
        (match inner with
        | Eval.Func (Check.Overlap, t1, t2) -> Printf.sprintf "%s overlaps %s" (tv t1) (tv t2)
        | _ -> Printf.sprintf "%s holds" (Spec_printer.expr_to_string (Eval.source inner)))
  | Eval.Cmp (op, t1, t2) ->
      Printf.sprintf "%s; %s — %s" (tv t1) (tv t2) (cmp_expectation op)
  | Eval.Func (Check.Overlap, t1, t2) ->
      Printf.sprintf "%s and %s do not overlap — expected overlap" (tv t1) (tv t2)
  | Eval.Func (Check.Contain, t1, t2) ->
      Printf.sprintf "%s does not contain %s" (tv t1) (tv t2)
  | Eval.Func (Check.Length, t1, t2) ->
      Printf.sprintf "%s does not have length %s" (tv t1) (tv t2)
  | Eval.Conn (a, b) ->
      Printf.sprintf "no connection %s.%s -> %s.%s" a.endpoint.Check.var a.endpoint.Check.attr
        b.endpoint.Check.var b.endpoint.Check.attr
  | Eval.Path (a, b) -> Printf.sprintf "no path from %s to %s" a.var b.var
  | Eval.Coconn _ | Eval.Copath _ ->
      Printf.sprintf "the topology pattern %s is absent"
        (Spec_printer.expr_to_string (Eval.source expr))

let violation ?defaults graph compiled assignment =
  let bindings =
    List.map (fun (var, id) -> (var, Resource.id_to_string id)) assignment
  in
  let ienv =
    Option.value ~default:[] (Eval.violating_index_env ?defaults graph compiled assignment)
  in
  let explanation =
    explain (Eval.instance ?defaults graph compiled assignment ienv) (Eval.stmt compiled)
  in
  { check = Eval.check compiled; assignment; bindings; explanation }

let all ?defaults graph compiled =
  List.map (violation ?defaults graph compiled) (Eval.violations ?defaults graph compiled)

let to_string t =
  String.concat "\n"
    ([
       Printf.sprintf "violated: %s" (Spec_printer.to_string t.check);
       Printf.sprintf "  where %s"
         (String.concat ", "
            (List.map (fun (var, id) -> Printf.sprintf "%s = %s" var id) t.bindings));
     ]
    @ [ Printf.sprintf "  because %s" t.explanation ])
