(* Result sets: the runs a [zbench run --out F.json] accumulates, with
   the environment they were measured in, and the benchmark definition
   ([BENCHMARK.json]) whose bounds [compare] applies. *)

module Json = Zodiac_util.Json
module W = Workloads

let nproc () =
  (* CPUs this process may run on, as nproc(1) counts them *)
  let from_status =
    match Proc.read_file "/proc/self/status" with
    | exception Sys_error _ -> None
    | status ->
        String.split_on_char '\n' status
        |> List.find_map (fun l -> Scanf.sscanf_opt l "Cpus_allowed_list: %s" Fun.id)
        |> Option.map (fun list ->
               String.split_on_char ',' list
               |> List.fold_left
                    (fun acc range ->
                      match String.split_on_char '-' range with
                      | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
                      | _ -> acc + 1)
                    0)
  in
  Option.value from_status ~default:(Domain.recommended_domain_count ())

(* The checked-out commit, read from .git without running git; the
   benchmark may run from an export that has no .git at all. *)
let commit () =
  let read f = String.trim (Proc.read_file (Filename.concat ".git" f)) in
  match read "HEAD" with
  | exception Sys_error _ -> "unknown"
  | head when String.starts_with ~prefix:"ref: " head -> (
      let ref_name = String.sub head 5 (String.length head - 5) in
      match read ref_name with
      | sha -> sha
      | exception Sys_error _ -> (
          match read "packed-refs" with
          | exception Sys_error _ -> "unknown"
          | packed ->
              String.split_on_char '\n' packed
              |> List.find_map (fun l ->
                     match String.split_on_char ' ' l with
                     | [ sha; name ] when String.equal name ref_name -> Some sha
                     | _ -> None)
              |> Option.value ~default:"unknown"))
  | sha -> sha

let env ~seed =
  Json.Obj
    [
      ("nproc", Json.Int (nproc ()));
      ("recommended_jobs", Json.Int (Zodiac_util.Parallel.recommended_jobs ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("commit", Json.String (commit ()));
      ("seed", Json.Int seed);
    ]

(* A float with every digit it has: %.17g round-trips exactly. A metric
   that could not be measured (already a failed check) prints as null,
   which keeps the line valid JSON. *)
let number v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let metrics_json metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (number v) unit)
         metrics)
  ^ "}"

(* The one-line result the benchmark contract asks for. *)
let result_line (r : W.run) =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": %s}|} (W.correct r)
    r.W.attempted r.W.failed (metrics_json r.W.metrics)

let run_json ~trace (r : W.run) =
  Json.Obj
    [
      ("workload", Json.String r.W.workload);
      ("seed", Json.Int r.W.seed);
      ("trace", Json.Bool trace);
      ("correct", Json.Bool (W.correct r));
      ("attempted", Json.Int r.W.attempted);
      ("failed", Json.Int r.W.failed);
      ("problems", Json.List (List.map (fun p -> Json.String p) r.W.problems));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v, unit) ->
               ( name,
                 Json.Obj
                   [
                     ("value", if Float.is_finite v then Json.Float v else Json.Null);
                     ("unit", Json.String unit);
                   ] ))
             r.W.metrics) );
    ]

let load path = Json.of_string (Proc.read_file path)

(* Append runs to the set in [path], creating it with [env] when new. *)
let append path ~env runs =
  let existing, env =
    if Sys.file_exists path then
      let j = load path in
      (Json.to_list (Json.member "runs" j), Json.member "env" j)
    else ([], env)
  in
  Proc.write_file path
    (Json.to_string ~pretty:true (Json.Obj [ ("env", env); ("runs", Json.List (existing @ runs)) ])
    ^ "\n")

(* (workload, metric) -> values, over a set's untraced runs *)
let samples set =
  List.fold_left
    (fun acc run ->
      if Json.bool_value (Json.member "trace" run) = Some true then acc
      else
        let workload = Option.get (Json.string_value (Json.member "workload" run)) in
        match Json.member "metrics" run with
        | Json.Obj ms ->
            List.fold_left
              (fun acc (name, m) ->
                match Json.float_value (Json.member "value" m) with
                | Some v ->
                    let key = (workload, name) in
                    let prev = Option.value ~default:[] (List.assoc_opt key acc) in
                    (key, v :: prev) :: List.remove_assoc key acc
                | None -> acc)
              acc ms
        | _ -> acc)
    [] (Json.to_list (Json.member "runs" set))

(* ---- BENCHMARK.json ---- *)

type metric_def = {
  name : string;
  unit : string;
  better : Stats.better;
  bound : float option;  (** end-to-end metrics only *)
}

type definition = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric_def list;
  per_layer : metric_def list;
}

let definition path =
  let j = load path in
  let name_of x =
    match Json.string_value (Json.member "name" x) with
    | Some n when Stats.valid_name n -> n
    | _ -> failwith (path ^ ": missing or invalid name " ^ Json.to_string (Json.member "name" x))
  in
  let metric m =
    let str k = Option.get (Json.string_value (Json.member k m)) in
    {
      name = name_of m;
      unit = str "unit";
      better = Option.get (Stats.better_of_string (str "better"));
      bound = Json.float_value (Json.member "bound" m);
    }
  in
  {
    run_seconds = Option.get (Json.int_value (Json.member "run_seconds" j));
    workloads = List.map name_of (Json.to_list (Json.member "workloads" j));
    end_to_end = List.map metric (Json.to_list (Json.member "end_to_end" j));
    per_layer = List.map metric (Json.to_list (Json.member "per_layer" j));
  }

(* Hold a run's metrics to the definition: exactly the listed metrics,
   each once, with its listed unit and a finite value, kept in the
   definition's order. Anything else is a failed check. *)
let conform defs (r : W.run) =
  let listed n = List.exists (fun d -> String.equal d.name n) defs in
  let problems =
    List.filter_map
      (fun d ->
        match List.filter (fun (n, _, _) -> String.equal n d.name) r.W.metrics with
        | [ (_, v, u) ] when String.equal u d.unit && Float.is_finite v -> None
        | [ (_, v, u) ] ->
            Some
              (Printf.sprintf "metric %s: value %s unit %s (BENCHMARK.json says %s)" d.name
                 (number v) u d.unit)
        | [] -> Some ("metric " ^ d.name ^ " not measured")
        | _ -> Some ("metric " ^ d.name ^ " measured twice"))
      defs
    @ List.filter_map
        (fun (n, _, _) -> if listed n then None else Some ("metric " ^ n ^ " is not in BENCHMARK.json"))
        r.W.metrics
  in
  {
    r with
    W.metrics =
      List.filter_map
        (fun d -> List.find_opt (fun (n, _, _) -> String.equal n d.name) r.W.metrics)
        defs;
    problems = r.W.problems @ problems;
    failed = (r.W.failed + if problems = [] then 0 else 1);
  }
