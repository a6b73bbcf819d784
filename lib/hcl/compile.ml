module Value = Zodiac_iac.Value
module Program = Zodiac_iac.Program
module Resource = Zodiac_iac.Resource

type diagnostic = { message : string; context : string }

type env = {
  type_map : string -> string option;
  variables : (string * Ast.expr) list;
  mutable diags : diagnostic list;
}

let warn env message context = env.diags <- { message; context } :: env.diags

let resolve_traversal env segments =
  match segments with
  | "var" :: name :: _ -> (
      match List.assoc_opt name env.variables with
      | Some default -> `Expr default
      | None -> `Opaque (Printf.sprintf "${var.%s}" name))
  | "local" :: name :: _ -> `Opaque (Printf.sprintf "${local.%s}" name)
  | "data" :: rest -> `Opaque (Printf.sprintf "${data.%s}" (String.concat "." rest))
  | tf_type :: rname :: attr_segments when attr_segments <> [] -> (
      match env.type_map tf_type with
      | Some rtype ->
          `Ref { Value.rtype; rname; attr = String.concat "." attr_segments }
      | None -> `Opaque (String.concat "." segments))
  | _ -> `Opaque (String.concat "." segments)

let rec expr_to_value env expr =
  match expr with
  | Ast.E_null -> Value.Null
  | Ast.E_bool b -> Value.Bool b
  | Ast.E_int i -> Value.Int i
  | Ast.E_float f -> Value.Int (int_of_float f)
  | Ast.E_list items -> Value.List (List.map (expr_to_value env) items)
  | Ast.E_map fields ->
      Value.Block (List.map (fun (k, v) -> (k, expr_to_value env v)) fields)
  | Ast.E_traversal segments -> (
      match resolve_traversal env segments with
      | `Ref r -> Value.Ref r
      | `Expr e -> expr_to_value env e
      | `Opaque s -> Value.Str s)
  | Ast.E_string [ Ast.Interp segments ] -> (
      match resolve_traversal env segments with
      | `Ref r -> Value.Ref r
      | `Expr e -> expr_to_value env e
      | `Opaque s -> Value.Str s)
  | Ast.E_string parts ->
      (* Mixed template: render to a flat string; references degrade to
         their textual form (no graph edge), matching plan rendering of
         computed string concatenations. *)
      let render part =
        match part with
        | Ast.Lit s -> s
        | Ast.Interp segments -> (
            match resolve_traversal env segments with
            | `Ref r -> Printf.sprintf "%s.%s.%s" r.Value.rtype r.rname r.attr
            | `Expr e -> (
                match expr_to_value env e with
                | Value.Str s -> s
                | v -> Value.to_string v)
            | `Opaque s -> s)
      in
      Value.Str (String.concat "" (List.map render parts))

let body_to_attrs env body =
  let attrs =
    List.map (fun (k, v) -> (k, expr_to_value env v)) body.Ast.battrs
  in
  (* Group nested blocks by type: a single occurrence compiles to a
     Block value, repeats compile to a List of Blocks. *)
  let rec block_value b = Value.Block (body_fields b.Ast.body)
  and body_fields body =
    let attrs = List.map (fun (k, v) -> (k, expr_to_value env v)) body.Ast.battrs in
    attrs @ grouped_blocks body
  and grouped_blocks body =
    let names =
      List.fold_left
        (fun acc b -> if List.mem b.Ast.btype acc then acc else acc @ [ b.Ast.btype ])
        [] body.Ast.bblocks
    in
    List.map
      (fun name ->
        let occurrences =
          List.filter (fun b -> String.equal b.Ast.btype name) body.Ast.bblocks
        in
        match occurrences with
        | [ only ] -> (name, block_value only)
        | many -> (name, Value.List (List.map block_value many)))
      names
  in
  attrs @ grouped_blocks body

let compile_file ~type_map file =
  let variables =
    List.filter_map
      (fun block ->
        match (block.Ast.btype, block.Ast.labels) with
        | "variable", [ name ] ->
            Option.map
              (fun d -> (name, d))
              (List.assoc_opt "default" block.Ast.body.Ast.battrs)
        | _ -> None)
      file
  in
  let env = { type_map; variables; diags = [] } in
  let resources =
    List.filter_map
      (fun block ->
        match (block.Ast.btype, block.Ast.labels) with
        | "resource", [ tf_type; rname ] ->
            let rtype =
              match type_map tf_type with
              | Some canonical -> canonical
              | None ->
                  warn env "unknown resource type" tf_type;
                  tf_type
            in
            Some (Resource.make rtype rname (body_to_attrs env block.Ast.body))
        | "resource", labels ->
            warn env "malformed resource block" (String.concat " " labels);
            None
        | ("variable" | "provider" | "output" | "terraform" | "locals" | "data"), _ ->
            None
        | other, _ ->
            warn env "ignored top-level block" other;
            None)
      file
  in
  (Program.of_resources resources, List.rev env.diags)

let compile_tokens ~type_map tokens =
  Result.map (compile_file ~type_map) (Parser.parse_tokens_result tokens)

let compile_string ~type_map src =
  Result.bind (Lexer.tokenize_result src) (compile_tokens ~type_map)

let rec value_to_expr ~type_name v =
  match v with
  | Value.Null -> Ast.E_null
  | Value.Bool b -> Ast.E_bool b
  | Value.Int i -> Ast.E_int i
  | Value.Str s -> Ast.string_lit s
  | Value.List items -> Ast.E_list (List.map (value_to_expr ~type_name) items)
  | Value.Block fields ->
      Ast.E_map (List.map (fun (k, v) -> (k, value_to_expr ~type_name v)) fields)
  | Value.Ref r ->
      Ast.E_traversal
        ((type_name r.Value.rtype :: r.rname :: String.split_on_char '.' r.attr))

(* Block values become nested blocks; lists of blocks become repeated
   nested blocks; everything else is an attribute. *)
let rec attrs_to_body ~type_name attrs =
  let battrs = ref [] in
  let bblocks = ref [] in
  List.iter
    (fun (k, v) ->
      match v with
      | Value.Block fields ->
          bblocks :=
            { Ast.btype = k; labels = []; body = attrs_to_body ~type_name fields }
            :: !bblocks
      | Value.List items
        when items <> []
             && List.for_all (function Value.Block _ -> true | _ -> false) items ->
          List.iter
            (fun item ->
              match item with
              | Value.Block fields ->
                  bblocks :=
                    {
                      Ast.btype = k;
                      labels = [];
                      body = attrs_to_body ~type_name fields;
                    }
                    :: !bblocks
              | _ -> ())
            items
      | v -> battrs := (k, value_to_expr ~type_name v) :: !battrs)
    attrs;
  { Ast.battrs = List.rev !battrs; bblocks = List.rev !bblocks }

let decompile ~type_name prog =
  List.map
    (fun r ->
      {
        Ast.btype = "resource";
        labels = [ type_name r.Resource.rtype; r.Resource.rname ];
        body = attrs_to_body ~type_name r.Resource.attrs;
      })
    (Program.resources prog)

let program_to_hcl ~type_name prog = Printer.file_to_string (decompile ~type_name prog)
