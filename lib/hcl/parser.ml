exception Parse_error of string * int

(* The parser walks the lexer's list itself: [cur] is the token under
   the cursor, [rest] the ones after it. Advancing stops on the last
   token, the [Eof] that ends every lexed list. *)
type state = { mutable cur : Lexer.spanned; mutable rest : Lexer.spanned list }

let current st = st.cur

let advance st =
  match st.rest with
  | next :: rest ->
      st.cur <- next;
      st.rest <- rest
  | [] -> ()

let fail st msg =
  let { Lexer.tok; line } = current st in
  raise
    (Parse_error
       (Printf.sprintf "%s, found %s" msg (Lexer.token_to_string tok), line))

let rec skip_newlines st =
  match (current st).Lexer.tok with
  | Lexer.Newline ->
      advance st;
      skip_newlines st
  | _ -> ()

(* A dotted traversal starting from an already-consumed identifier. *)
let parse_traversal st first =
  let segments = ref [ first ] in
  let continue = ref true in
  while !continue do
    match (current st).Lexer.tok with
    | Lexer.Dot -> (
        advance st;
        match (current st).Lexer.tok with
        | Lexer.Ident s ->
            advance st;
            segments := s :: !segments
        | Lexer.Int_lit i ->
            advance st;
            segments := string_of_int i :: !segments
        | _ -> fail st "expected attribute name after '.'")
    | Lexer.Lbrack -> (
        advance st;
        (match (current st).Lexer.tok with
        | Lexer.Int_lit i ->
            advance st;
            segments := string_of_int i :: !segments
        | _ -> fail st "expected index after '['");
        match (current st).Lexer.tok with
        | Lexer.Rbrack -> advance st
        | _ -> fail st "expected ']'")
    | _ -> continue := false
  done;
  Ast.E_traversal (List.rev !segments)

let rec parse_expr st =
  skip_newlines st;
  match (current st).Lexer.tok with
  | Lexer.Ident "null" ->
      advance st;
      Ast.E_null
  | Lexer.Ident "true" ->
      advance st;
      Ast.E_bool true
  | Lexer.Ident "false" ->
      advance st;
      Ast.E_bool false
  | Lexer.Ident s ->
      advance st;
      parse_traversal st s
  | Lexer.Int_lit i ->
      advance st;
      Ast.E_int i
  | Lexer.Float_lit f ->
      advance st;
      Ast.E_float f
  | Lexer.Str parts ->
      advance st;
      Ast.E_string parts
  | Lexer.Lbrack ->
      advance st;
      parse_list st
  | Lexer.Lbrace ->
      advance st;
      parse_map st
  | _ -> fail st "expected expression"

and parse_list st =
  let items = ref [] in
  skip_newlines st;
  let rec loop () =
    match (current st).Lexer.tok with
    | Lexer.Rbrack -> advance st
    | _ ->
        items := parse_expr st :: !items;
        skip_newlines st;
        (match (current st).Lexer.tok with
        | Lexer.Comma ->
            advance st;
            skip_newlines st
        | _ -> ());
        loop ()
  in
  loop ();
  Ast.E_list (List.rev !items)

and parse_map st =
  let fields = ref [] in
  skip_newlines st;
  let rec loop () =
    match (current st).Lexer.tok with
    | Lexer.Rbrace -> advance st
    | Lexer.Ident key | Lexer.Str [ Ast.Lit key ] ->
        advance st;
        (match (current st).Lexer.tok with
        | Lexer.Equal | Lexer.Colon -> advance st
        | _ -> fail st "expected '=' or ':' in map");
        let v = parse_expr st in
        fields := (key, v) :: !fields;
        skip_newlines st;
        (match (current st).Lexer.tok with
        | Lexer.Comma ->
            advance st;
            skip_newlines st
        | _ -> ());
        loop ()
    | _ -> fail st "expected map key or '}'"
  in
  loop ();
  Ast.E_map (List.rev !fields)

(* Body items: `ident = expr` attributes or `ident ("label")* { ... }`
   nested blocks. *)
let rec parse_body st =
  let battrs = ref [] in
  let bblocks = ref [] in
  skip_newlines st;
  let rec loop () =
    match (current st).Lexer.tok with
    | Lexer.Rbrace | Lexer.Eof -> ()
    | Lexer.Ident name -> (
        advance st;
        match (current st).Lexer.tok with
        | Lexer.Equal ->
            advance st;
            let v = parse_expr st in
            battrs := (name, v) :: !battrs;
            end_of_item st;
            loop ()
        | Lexer.Lbrace | Lexer.Str _ | Lexer.Ident _ ->
            let block = parse_block_after_type st name in
            bblocks := block :: !bblocks;
            end_of_item st;
            loop ()
        | _ -> fail st "expected '=' or block after identifier")
    | Lexer.Newline ->
        skip_newlines st;
        loop ()
    | _ -> fail st "expected attribute or block"
  in
  loop ();
  { Ast.battrs = List.rev !battrs; bblocks = List.rev !bblocks }

and end_of_item st =
  match (current st).Lexer.tok with
  | Lexer.Newline -> skip_newlines st
  | Lexer.Rbrace | Lexer.Eof -> ()
  | _ -> fail st "expected newline after item"

and parse_block_after_type st btype =
  let labels = ref [] in
  let rec read_labels () =
    match (current st).Lexer.tok with
    | Lexer.Str [ Ast.Lit label ] ->
        advance st;
        labels := label :: !labels;
        read_labels ()
    | Lexer.Ident label ->
        advance st;
        labels := label :: !labels;
        read_labels ()
    | _ -> ()
  in
  read_labels ();
  (match (current st).Lexer.tok with
  | Lexer.Lbrace -> advance st
  | _ -> fail st "expected '{' opening block body");
  let body = parse_body st in
  (match (current st).Lexer.tok with
  | Lexer.Rbrace -> advance st
  | _ -> fail st "expected '}' closing block body");
  { Ast.btype; labels = List.rev !labels; body }

let parse_tokens = function
  | [] -> []
  | cur :: rest ->
      let st = { cur; rest } in
      let blocks = ref [] in
      skip_newlines st;
      let rec loop () =
        match (current st).Lexer.tok with
        | Lexer.Eof -> ()
        | Lexer.Ident btype ->
            advance st;
            blocks := parse_block_after_type st btype :: !blocks;
            skip_newlines st;
            loop ()
        | _ -> fail st "expected top-level block"
      in
      loop ();
      List.rev !blocks

let parse_tokens_result tokens =
  match parse_tokens tokens with
  | file -> Ok file
  | exception Parse_error (msg, line) ->
      Error (Printf.sprintf "parse error: %s (line %d)" msg line)

let parse_result src = Result.bind (Lexer.tokenize_result src) parse_tokens_result
