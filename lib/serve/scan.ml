module Check = Zodiac_spec.Check
module Eval = Zodiac_spec.Eval
module Diagnose = Zodiac_spec.Diagnose
module Graph = Zodiac_iac.Graph
module Provider = Zodiac_provider.Provider

type check_entry = { id : string; message : string; check : Check.t; compiled : Eval.compiled }

let ground_truth_entries provider =
  List.map
    (fun (rule : Provider.rule) ->
      {
        id = rule.Provider.rule_id;
        message = rule.Provider.message;
        check = rule.Provider.check;
        compiled = rule.Provider.compiled;
      })
    (provider.Provider.ground_truth ())

let checkset_entries checks =
  List.map
    (fun (c : Check.t) ->
      {
        id = c.Check.cid;
        message = Zodiac_spec.Spec_printer.to_string c;
        check = c;
        compiled = Eval.compile c;
      })
    checks

let load_checks provider = function
  | None -> Ok (ground_truth_entries provider)
  | Some file -> (
      match Zodiac.Checkset.load file with
      | Ok checks -> Ok (checkset_entries checks)
      | Error e -> Error e)

(* Evaluate every check over a built graph. [checkpoint] runs between
   check entries — the cooperative deadline probe; it may raise to
   abandon the scan (partial findings are discarded by the caller). *)
let findings_of_graph ?checkpoint ~provider ~checks ~file ~line_of graph =
  let probe = match checkpoint with None -> ignore | Some f -> f in
  let defaults = Zodiac_cloud.Arm.defaults provider in
  List.concat_map
    (fun entry ->
      probe ();
      List.map
        (fun assignment ->
          let diagnosis =
            Diagnose.violation ~defaults graph entry.compiled assignment
          in
          {
            Sarif.rule_id = entry.id;
            message = entry.message;
            bindings = diagnosis.Diagnose.bindings;
            explanation = diagnosis.Diagnose.explanation;
            file;
            line = line_of assignment;
          })
        (Eval.violations ~defaults graph entry.compiled))
    checks

(* The source is lexed once: its tokens feed the compiler and then the
   line index, and are dropped before the graph is built. *)
let scan_source ?checkpoint ~provider ~checks ~file src =
  let compiled =
    Result.bind (Zodiac_hcl.Lexer.tokenize_result src) (fun tokens ->
        Result.map
          (fun (prog, _diags) -> (prog, Sarif.index_tokens tokens))
          (Zodiac_hcl.Compile.compile_tokens
             ~type_map:provider.Provider.of_terraform tokens))
  in
  match compiled with
  | Error e -> Error (Printf.sprintf "%s: %s" file e)
  | Ok (prog, index) ->
      let graph = Graph.build prog in
      let line_of = function
        | [] -> 1
        | (_, rid) :: _ -> Sarif.resource_line index rid
      in
      Ok (findings_of_graph ?checkpoint ~provider ~checks ~file ~line_of graph)

(* Terraform-plan scanning: the same check evaluation over a program
   reconstructed from `terraform show -json` output. Plan JSON carries
   no HCL source positions, so every finding anchors at line 1. *)
let scan_plan_source ?checkpoint ~provider ~checks ~file src =
  match Zodiac_util.Json.of_string_result src with
  | Error e -> Error (Printf.sprintf "%s: %s" file e)
  | Ok json -> (
      match
        Zodiac_hcl.Plan.of_json ~type_map:provider.Provider.of_terraform json
      with
      | Error e -> Error (Printf.sprintf "%s: %s" file e)
      | Ok prog ->
          let graph = Graph.build prog in
          Ok
            (findings_of_graph ?checkpoint ~provider ~checks ~file
               ~line_of:(fun _ -> 1)
               graph))

let read_file path =
  match Sys.is_directory path with
  | true ->
      Error
        (path ^ ": is a directory, not a file (the daemon's scan_directory scans a directory)")
  | false | (exception Sys_error _) -> (
      match open_in_bin path with
      | exception Sys_error e -> Error e
      | ic -> (
          match
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          with
          | exception Sys_error e -> Error e
          | src -> Ok src))

let scan_file ?checkpoint ~provider ~checks path =
  match read_file path with
  | Error e -> Error e
  | Ok src -> scan_source ?checkpoint ~provider ~checks ~file:path src

let is_hcl path =
  Filename.check_suffix path ".tf" || Filename.check_suffix path ".hcl"

let hcl_files dir =
  let rec walk acc path =
    match Sys.is_directory path with
    | exception Sys_error _ -> acc
    | true ->
        let entries =
          match Sys.readdir path with
          | exception Sys_error _ -> [||]
          | entries ->
              Array.sort compare entries;
              entries
        in
        Array.fold_left
          (fun acc entry -> walk acc (Filename.concat path entry))
          acc entries
    | false -> if is_hcl path then path :: acc else acc
  in
  List.rev (walk [] dir)

let scan_directory ?jobs ?checkpoint ?scan ~provider ~checks dir =
  if not (Sys.file_exists dir) then Error (dir ^ ": no such directory")
  else if not (Sys.is_directory dir) then Error (dir ^ ": not a directory")
  else
    let scan_one =
      match scan with
      | Some f -> f
      | None -> fun file -> scan_file ?checkpoint ~provider ~checks file
    in
    let files = hcl_files dir in
    let scanned =
      Zodiac_util.Parallel.map ?jobs (fun file -> (file, scan_one file)) files
    in
    let findings, errors =
      List.fold_left
        (fun (findings, errors) (file, result) ->
          match result with
          | Ok fs -> (findings @ fs, errors)
          | Error e -> (findings, errors @ [ (file, e) ]))
        ([], []) scanned
    in
    Ok (findings, errors)
