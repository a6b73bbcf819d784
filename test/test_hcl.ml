(* Tests for the HCL subset: lexer, parser, printer, compiler. *)

module Ast = Zodiac_hcl.Ast
module Lexer = Zodiac_hcl.Lexer
module Parser = Zodiac_hcl.Parser
module Printer = Zodiac_hcl.Printer
module Compile = Zodiac_hcl.Compile
module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program

let type_map = Zodiac_azure.Catalog.of_terraform

let parse_ok src =
  match Parser.parse_result src with
  | Ok file -> file
  | Error e -> Alcotest.failf "parse failed: %s" e

let compile_ok src =
  match Compile.compile_string ~type_map src with
  | Ok (prog, _) -> prog
  | Error e -> Alcotest.failf "compile failed: %s" e

(* ---------------- lexer --------------------------------------------- *)

let test_lex_basics () =
  let toks = Lexer.tokenize "a = 1\nb = \"x\"" in
  Alcotest.(check int) "token count" 8 (List.length toks)
(* a = 1 NL b = "x" EOF *)

let test_lex_comments () =
  let toks = Lexer.tokenize "# line\n// line2\n/* block\nspanning */ a" in
  let idents =
    List.filter (fun t -> match t.Lexer.tok with Lexer.Ident _ -> true | _ -> false) toks
  in
  Alcotest.(check int) "only ident a" 1 (List.length idents)

let test_lex_string_escapes () =
  match Lexer.tokenize {|x = "a\"b\nc"|} with
  | [ _; _; { Lexer.tok = Lexer.Str [ Ast.Lit s ]; _ }; _ ] ->
      Alcotest.(check string) "unescaped" "a\"b\nc" s
  | _ -> Alcotest.fail "unexpected tokens"

let test_lex_interpolation () =
  match Lexer.tokenize {|x = "${azurerm_subnet.a.id}"|} with
  | [ _; _; { Lexer.tok = Lexer.Str [ Ast.Interp segs ]; _ }; _ ] ->
      Alcotest.(check (list string)) "traversal" [ "azurerm_subnet"; "a"; "id" ] segs
  | _ -> Alcotest.fail "expected single interpolation"

let test_lex_errors () =
  List.iter
    (fun src ->
      match Lexer.tokenize src with
      | exception Lexer.Lex_error _ -> ()
      | _ -> Alcotest.failf "expected lex error for %S" src)
    [ {|x = "unterminated|}; "x = @" ]

let test_lex_negative_number () =
  match Lexer.tokenize "x = -5" with
  | [ _; _; { Lexer.tok = Lexer.Int_lit (-5); _ }; _ ] -> ()
  | _ -> Alcotest.fail "expected -5"

(* ---------------- reference lexer and parser ------------------------ *)

(* The lexer that peeked through [Some c] and the parser that copied
   the token list into an array, kept verbatim (the token type is
   shared) as the reference the lexer and parser must agree with:
   same tokens, same AST, or the same error message and line. *)
module Reference = struct
  module Lexer = struct
    type token = Lexer.token =
      | Ident of string
      | Str of Ast.string_part list
      | Int_lit of int
      | Float_lit of float
      | Lbrace
      | Rbrace
      | Lbrack
      | Rbrack
      | Equal
      | Comma
      | Colon
      | Dot
      | Newline
      | Eof

    type spanned = Lexer.spanned = { tok : token; line : int }

    exception Lex_error of string * int

    let token_to_string = function
      | Ident s -> Printf.sprintf "identifier %S" s
      | Str _ -> "string"
      | Int_lit i -> string_of_int i
      | Float_lit f -> string_of_float f
      | Lbrace -> "'{'"
      | Rbrace -> "'}'"
      | Lbrack -> "'['"
      | Rbrack -> "']'"
      | Equal -> "'='"
      | Comma -> "','"
      | Colon -> "':'"
      | Dot -> "'.'"
      | Newline -> "newline"
      | Eof -> "end of input"

    type state = { src : string; mutable pos : int; mutable line : int }

    let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

    let peek2 st =
      if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

    let advance st =
      (if st.pos < String.length st.src && st.src.[st.pos] = '\n' then
         st.line <- st.line + 1);
      st.pos <- st.pos + 1

    let is_ident_start c =
      match c with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

    let is_ident_char c =
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true | _ -> false

    let is_digit c = match c with '0' .. '9' -> true | _ -> false

    let read_ident st =
      let start = st.pos in
      while
        match peek st with Some c when is_ident_char c -> true | Some _ | None -> false
      do
        advance st
      done;
      String.sub st.src start (st.pos - start)

    let read_number st =
      let start = st.pos in
      let seen_dot = ref false in
      while
        match peek st with
        | Some c when is_digit c -> true
        | Some '.' when not !seen_dot && (match peek2 st with Some d -> is_digit d | None -> false) ->
            seen_dot := true;
            true
        | Some _ | None -> false
      do
        advance st
      done;
      let text = String.sub st.src start (st.pos - start) in
      if !seen_dot then Float_lit (float_of_string text)
      else
        match int_of_string_opt text with
        | Some i -> Int_lit i
        | None -> raise (Lex_error (Printf.sprintf "bad number %S" text, st.line))

    (* Read the traversal inside ${...}: dotted identifiers, allowing
       numeric segments for list indexing (azurerm_x.a.ids.0). Index
       brackets [0] are normalized into numeric segments. *)
    let read_interp_traversal st =
      let segments = ref [] in
      let read_segment () =
        match peek st with
        | Some c when is_ident_start c -> segments := read_ident st :: !segments
        | Some c when is_digit c -> (
            match read_number st with
            | Int_lit i -> segments := string_of_int i :: !segments
            | Float_lit _ | _ -> raise (Lex_error ("bad index in interpolation", st.line)))
        | _ -> raise (Lex_error ("bad interpolation", st.line))
      in
      read_segment ();
      let continue = ref true in
      while !continue do
        match peek st with
        | Some '.' ->
            advance st;
            read_segment ()
        | Some '[' ->
            advance st;
            read_segment ();
            (match peek st with
            | Some ']' -> advance st
            | _ -> raise (Lex_error ("expected ']' in interpolation", st.line)))
        | _ -> continue := false
      done;
      (match peek st with
      | Some '}' -> advance st
      | _ -> raise (Lex_error ("expected '}' closing interpolation", st.line)));
      List.rev !segments

    let read_string st =
      let line0 = st.line in
      advance st;
      (* opening quote *)
      let parts = ref [] in
      let buf = Buffer.create 16 in
      let flush_lit () =
        if Buffer.length buf > 0 then begin
          parts := Ast.Lit (Buffer.contents buf) :: !parts;
          Buffer.clear buf
        end
      in
      let rec loop () =
        match peek st with
        | None -> raise (Lex_error ("unterminated string", line0))
        | Some '"' ->
            advance st;
            flush_lit ()
        | Some '\\' ->
            advance st;
            (match peek st with
            | Some 'n' -> Buffer.add_char buf '\n'
            | Some 't' -> Buffer.add_char buf '\t'
            | Some '"' -> Buffer.add_char buf '"'
            | Some '\\' -> Buffer.add_char buf '\\'
            | Some '$' -> Buffer.add_char buf '$'
            | Some c -> Buffer.add_char buf c
            | None -> raise (Lex_error ("unterminated string", line0)));
            advance st;
            loop ()
        | Some '$' when peek2 st = Some '{' ->
            advance st;
            advance st;
            flush_lit ();
            let traversal = read_interp_traversal st in
            parts := Ast.Interp traversal :: !parts;
            loop ()
        | Some c ->
            advance st;
            Buffer.add_char buf c;
            loop ()
      in
      loop ();
      Str (List.rev !parts)

    let skip_line_comment st =
      while match peek st with Some c when c <> '\n' -> true | Some _ | None -> false do
        advance st
      done

    let skip_block_comment st =
      let line0 = st.line in
      let rec loop () =
        match (peek st, peek2 st) with
        | Some '*', Some '/' ->
            advance st;
            advance st
        | Some _, _ ->
            advance st;
            loop ()
        | None, _ -> raise (Lex_error ("unterminated comment", line0))
      in
      advance st;
      advance st;
      loop ()

    let tokenize src =
      let st = { src; pos = 0; line = 1 } in
      let out = ref [] in
      let emit tok = out := { tok; line = st.line } :: !out in
      let last_is_newline () =
        match !out with { tok = Newline; _ } :: _ | [] -> true | _ -> false
      in
      let rec loop () =
        match peek st with
        | None -> emit Eof
        | Some (' ' | '\t' | '\r') ->
            advance st;
            loop ()
        | Some '\n' ->
            if not (last_is_newline ()) then emit Newline;
            advance st;
            loop ()
        | Some '#' ->
            skip_line_comment st;
            loop ()
        | Some '/' when peek2 st = Some '/' ->
            skip_line_comment st;
            loop ()
        | Some '/' when peek2 st = Some '*' ->
            skip_block_comment st;
            loop ()
        | Some '"' ->
            emit (read_string st);
            loop ()
        | Some '{' ->
            advance st;
            emit Lbrace;
            loop ()
        | Some '}' ->
            advance st;
            emit Rbrace;
            loop ()
        | Some '[' ->
            advance st;
            emit Lbrack;
            loop ()
        | Some ']' ->
            advance st;
            emit Rbrack;
            loop ()
        | Some '=' ->
            advance st;
            emit Equal;
            loop ()
        | Some ',' ->
            advance st;
            emit Comma;
            loop ()
        | Some ':' ->
            advance st;
            emit Colon;
            loop ()
        | Some '.' ->
            advance st;
            emit Dot;
            loop ()
        | Some '-' when (match peek2 st with Some d -> is_digit d | None -> false) ->
            advance st;
            (match read_number st with
            | Int_lit i -> emit (Int_lit (-i))
            | Float_lit f -> emit (Float_lit (-.f))
            | _ -> assert false);
            loop ()
        | Some c when is_digit c ->
            emit (read_number st);
            loop ()
        | Some c when is_ident_start c ->
            emit (Ident (read_ident st));
            loop ()
        | Some c -> raise (Lex_error (Printf.sprintf "illegal character %C" c, st.line))
      in
      loop ();
      List.rev !out
  end

  module Parser = struct
    exception Parse_error of string * int

    type state = { toks : Lexer.spanned array; mutable idx : int }

    let current st = st.toks.(st.idx)

    let advance st = if st.idx < Array.length st.toks - 1 then st.idx <- st.idx + 1

    let fail st msg =
      let { Lexer.tok; line } = current st in
      raise
        (Parse_error
           (Printf.sprintf "%s, found %s" msg (Lexer.token_to_string tok), line))

    let skip_newlines st =
      while (current st).Lexer.tok = Lexer.Newline do
        advance st
      done

    let expect st tok msg =
      if (current st).Lexer.tok = tok then advance st else fail st msg

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
      expect st Lexer.Lbrace "expected '{' opening block body";
      let body = parse_body st in
      expect st Lexer.Rbrace "expected '}' closing block body";
      { Ast.btype; labels = List.rev !labels; body }

    let parse src =
      let toks = Array.of_list (Lexer.tokenize src) in
      let st = { toks; idx = 0 } in
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
  end
end

type 'a outcome = Done of 'a | Lex_failed of string * int | Parse_failed of string * int

(* Only the two syntax errors are outcomes: any other exception escapes
   and fails the property. *)
let reference_outcome f =
  match f () with
  | v -> Done v
  | exception Reference.Lexer.Lex_error (msg, line) -> Lex_failed (msg, line)
  | exception Reference.Parser.Parse_error (msg, line) -> Parse_failed (msg, line)

let outcome f =
  match f () with
  | v -> Done v
  | exception Lexer.Lex_error (msg, line) -> Lex_failed (msg, line)
  | exception Parser.Parse_error (msg, line) -> Parse_failed (msg, line)

let agrees_with_reference src =
  reference_outcome (fun () -> Reference.Lexer.tokenize src)
  = outcome (fun () -> Lexer.tokenize src)
  && reference_outcome (fun () -> Reference.Parser.parse src)
     = outcome (fun () -> Parser.parse_tokens (Lexer.tokenize src))

(* Pieces biased toward the lexer's edge cases: quotes, escapes,
   interpolation and comment openers, signs, dots and digits, NUL,
   carriage returns and newlines, next to enough HCL to parse. *)
let hcl_pieces =
  [|
    "\""; "\\"; "${"; "}"; "{"; "/*"; "*/"; "//"; "#"; "-"; "."; "0"; "7"; "42";
    "\000"; "\r"; "\n"; "\n"; " "; "\t"; "["; "]"; "="; ","; ":"; "$"; "*"; "/";
    "a"; "x_1"; "resource"; "true"; "null"; "\\n"; "\\t"; "\\\""; "\\$"; "@";
  |]

let hcl_soup =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      map (String.concat "")
        (list_size (int_bound 60)
           (map (Array.get hcl_pieces) (int_bound (Array.length hcl_pieces - 1)))))

(* Rendered corpus programs, each with a few random byte edits: a
   deletion, an insertion of a piece, or a byte overwritten. *)
let rendered_programs =
  lazy
    (Zodiac_corpus.Generator.generate ~provider:Zodiac_azure.Azure.provider
       ~violation_rate:0.2 ~seed:5 ~count:24 ()
    |> List.map (fun (p : Zodiac_corpus.Generator.project) ->
           Compile.program_to_hcl ~type_name:Zodiac_azure.Catalog.to_terraform
             p.Zodiac_corpus.Generator.program)
    |> Array.of_list)

let edit src (kind, at, piece) =
  let n = String.length src in
  let at = if n = 0 then 0 else at mod n in
  let before = String.sub src 0 at and after = String.sub src at (n - at) in
  let drop s = if s = "" then s else String.sub s 1 (String.length s - 1) in
  let piece = hcl_pieces.(piece mod Array.length hcl_pieces) in
  match kind with
  | 0 -> before ^ drop after
  | 1 -> before ^ piece ^ after
  | _ -> before ^ String.make 1 piece.[0] ^ drop after

let edited_program =
  let programs = Lazy.force rendered_programs in
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      map2
        (fun k edits -> List.fold_left edit programs.(k mod Array.length programs) edits)
        nat
        (list_size (int_range 0 4) (triple (int_bound 2) nat nat)))

let reference_on_soup =
  QCheck.Test.make ~name:"lexer and parser = reference on HCL soup" ~count:3000 hcl_soup
    agrees_with_reference

let reference_on_edited_programs =
  QCheck.Test.make ~name:"lexer and parser = reference on edited programs" ~count:400
    edited_program agrees_with_reference

(* ---------------- parser -------------------------------------------- *)

let test_parse_resource_block () =
  let file =
    parse_ok
      {|
resource "azurerm_subnet" "a" {
  name = "frontend"
  cidr = "10.0.1.0/24"
}
|}
  in
  match file with
  | [ { Ast.btype = "resource"; labels = [ "azurerm_subnet"; "a" ]; body } ] ->
      Alcotest.(check int) "two attrs" 2 (List.length body.Ast.battrs)
  | _ -> Alcotest.fail "unexpected structure"

let test_parse_nested_blocks () =
  let file =
    parse_ok
      {|
resource "t" "x" {
  outer {
    inner = true
  }
  outer {
    inner = false
  }
}
|}
  in
  match file with
  | [ { Ast.body = { Ast.bblocks; _ }; _ } ] ->
      Alcotest.(check int) "two nested" 2 (List.length bblocks)
  | _ -> Alcotest.fail "unexpected structure"

let test_parse_lists_and_maps () =
  let file =
    parse_ok
      {|
resource "t" "x" {
  xs = [1, 2,
        3]
  m = { a = "b", c = 2 }
  empty = []
}
|}
  in
  match file with
  | [ { Ast.body = { Ast.battrs; _ }; _ } ] -> (
      match List.assoc "xs" battrs with
      | Ast.E_list items -> Alcotest.(check int) "3 items" 3 (List.length items)
      | _ -> Alcotest.fail "xs not a list")
  | _ -> Alcotest.fail "unexpected structure"

let test_parse_traversal () =
  let file = parse_ok {|
resource "t" "x" {
  r = azurerm_subnet.a.id
}
|} in
  match file with
  | [ { Ast.body = { Ast.battrs = [ (_, Ast.E_traversal segs) ]; _ }; _ } ] ->
      Alcotest.(check (list string)) "segments" [ "azurerm_subnet"; "a"; "id" ] segs
  | _ -> Alcotest.fail "unexpected structure"

let test_parse_index_traversal () =
  let file = parse_ok {|
resource "t" "x" {
  r = azurerm_x.a.ids[0]
}
|} in
  match file with
  | [ { Ast.body = { Ast.battrs = [ (_, Ast.E_traversal segs) ]; _ }; _ } ] ->
      Alcotest.(check (list string)) "segments" [ "azurerm_x"; "a"; "ids"; "0" ] segs
  | _ -> Alcotest.fail "unexpected structure"

let test_parse_errors () =
  List.iter
    (fun src ->
      match Parser.parse_result src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" src)
    [
      "resource {";
      "resource \"a\" \"b\" { x = }";
      "resource \"a\" \"b\" { x 1 }";
      "= 3";
    ]

(* ---------------- printer roundtrip --------------------------------- *)

let test_print_parse_roundtrip () =
  let src =
    {|
resource "azurerm_virtual_network" "net" {
  name          = "n"
  address_space = ["10.0.0.0/16"]
  tags          = { env = "prod" }
}

resource "azurerm_subnet" "s" {
  name     = "x"
  vpc_name = azurerm_virtual_network.net.name
  cidr     = "10.0.1.0/24"
  delegation {
    name    = "d"
    service = "Microsoft.Web/serverFarms"
  }
}
|}
  in
  let file = parse_ok src in
  let printed = Printer.file_to_string file in
  let file2 = parse_ok printed in
  (* compare through compilation, which normalizes formatting *)
  let p1, _ = Compile.compile_file ~type_map file in
  let p2, _ = Compile.compile_file ~type_map file2 in
  Alcotest.(check bool) "same program" true (Program.equal p1 p2)

(* ---------------- compile ------------------------------------------- *)

let test_compile_references () =
  let prog =
    compile_ok
      {|
resource "azurerm_virtual_network" "n" {
  name = "vn"
}
resource "azurerm_subnet" "s" {
  name     = "sub"
  vpc_name = azurerm_virtual_network.n.name
  cidr     = "10.0.0.0/24"
}
|}
  in
  match Program.find prog { Resource.rtype = "SUBNET"; rname = "s" } with
  | Some r -> (
      match Resource.get r "vpc_name" with
      | Value.Ref { Value.rtype = "VPC"; rname = "n"; attr = "name" } -> ()
      | v -> Alcotest.failf "unexpected %s" (Value.to_string v))
  | None -> Alcotest.fail "subnet missing"

let test_compile_interpolation_ref () =
  let prog =
    compile_ok
      {|
resource "azurerm_subnet" "s" {
  name     = "sub"
  vpc_name = "${azurerm_virtual_network.n.name}"
  cidr     = "10.0.0.0/24"
}
|}
  in
  match Program.resources prog with
  | [ r ] -> (
      match Resource.get r "vpc_name" with
      | Value.Ref _ -> ()
      | v -> Alcotest.failf "expected ref, got %s" (Value.to_string v))
  | _ -> Alcotest.fail "one resource expected"

let test_compile_variables () =
  let prog =
    compile_ok
      {|
variable "region" {
  default = "eastus"
}
resource "azurerm_public_ip" "p" {
  name     = "ip"
  location = var.region
  allocation = "Static"
}
|}
  in
  match Program.resources prog with
  | [ r ] ->
      Alcotest.(check bool) "substituted" true
        (Resource.get r "location" = Value.Str "eastus")
  | _ -> Alcotest.fail "one resource expected"

let test_compile_unknown_type_diagnostic () =
  match
    Compile.compile_string ~type_map
      {|
resource "azurerm_something_new" "x" {
  name = "n"
}
|}
  with
  | Ok (prog, diags) ->
      Alcotest.(check int) "kept with literal type" 1 (Program.size prog);
      Alcotest.(check bool) "diagnostic emitted" true (diags <> [])
  | Error e -> Alcotest.failf "unexpected failure %s" e

let test_compile_repeated_blocks_to_list () =
  let prog =
    compile_ok
      {|
resource "azurerm_network_security_group" "sg" {
  name = "n"
  location = "eastus"
  rule {
    name = "a"
    priority = 100
  }
  rule {
    name = "b"
    priority = 200
  }
}
|}
  in
  match Program.resources prog with
  | [ r ] -> (
      match Resource.attr r "rule" with
      | Some (Value.List items) -> Alcotest.(check int) "two rules" 2 (List.length items)
      | _ -> Alcotest.fail "rule should be a list")
  | _ -> Alcotest.fail "one resource expected"

let test_compile_mixed_template_degrades () =
  let prog =
    compile_ok
      {|
resource "azurerm_subnet" "s" {
  name = "prefix-${azurerm_virtual_network.n.name}"
  cidr = "10.0.0.0/24"
  vpc_name = azurerm_virtual_network.n.name
}
|}
  in
  match Program.resources prog with
  | [ r ] -> (
      match Resource.get r "name" with
      | Value.Str s ->
          Alcotest.(check bool) "rendered textually" true
            (String.length s > String.length "prefix-")
      | v -> Alcotest.failf "expected string, got %s" (Value.to_string v))
  | _ -> Alcotest.fail "one resource expected"

let test_decompile_roundtrip () =
  (* program -> HCL -> program is stable *)
  let prog =
    compile_ok
      {|
resource "azurerm_network_interface" "nic" {
  name     = "n"
  location = "eastus"
  ip_config {
    name                  = "internal"
    subnet_id             = azurerm_subnet.s.id
    private_ip_allocation = "Dynamic"
  }
}
resource "azurerm_subnet" "s" {
  name = "sub"
  cidr = "10.0.0.0/24"
  vpc_name = "net"
}
|}
  in
  let hcl = Compile.program_to_hcl ~type_name:Zodiac_azure.Catalog.to_terraform prog in
  let prog2 = compile_ok hcl in
  Alcotest.(check bool) "stable" true (Program.equal prog prog2)

(* ---------------- plan JSON ----------------------------------------- *)

module Plan = Zodiac_hcl.Plan

let tf_name = Zodiac_azure.Catalog.to_terraform

let test_plan_roundtrip () =
  let prog =
    compile_ok
      {|
resource "azurerm_virtual_network" "n" {
  name = "vn"
  location = "eastus"
  address_space = ["10.0.0.0/16"]
}
resource "azurerm_subnet" "s" {
  name     = "sub"
  vpc_name = azurerm_virtual_network.n.name
  cidr     = "10.0.0.0/24"
}
resource "azurerm_linux_virtual_machine" "vm" {
  name = "m"
  location = "eastus"
  sku = "Standard_B2s"
  nic_ids = [azurerm_network_interface.a.id, azurerm_network_interface.b.id]
  os_disk {
    name = "osd"
    caching = "ReadWrite"
    storage_type = "Standard_LRS"
  }
}
resource "azurerm_network_interface" "a" {
  name = "a"
  location = "eastus"
  ip_config {
    name = "c"
    subnet_id = azurerm_subnet.s.id
    private_ip_allocation = "Dynamic"
  }
}
resource "azurerm_network_interface" "b" {
  name = "b"
  location = "eastus"
  ip_config {
    name = "c"
    subnet_id = azurerm_subnet.s.id
    private_ip_allocation = "Dynamic"
  }
}
|}
  in
  let text = Plan.to_string ~type_name:tf_name prog in
  match Plan.of_string ~type_map text with
  | Ok prog2 ->
      Alcotest.(check bool) "round trip" true (Program.equal prog prog2);
      (* the resource graph survives *)
      let g1 = Zodiac_iac.Graph.build prog in
      let g2 = Zodiac_iac.Graph.build prog2 in
      Alcotest.(check int) "same edges"
        (List.length (Zodiac_iac.Graph.edges g1))
        (List.length (Zodiac_iac.Graph.edges g2))
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_plan_shape () =
  let prog = compile_ok {|
resource "azurerm_public_ip" "p" {
  name = "pip"
  location = "eastus"
  allocation = "Static"
}
|} in
  let json = Plan.to_json ~type_name:tf_name prog in
  let open Zodiac_util.Json in
  (* terraform-shaped top level *)
  Alcotest.(check (option string)) "format_version" (Some "1.2")
    (string_value (member "format_version" json));
  let planned =
    member "planned_values" json |> member "root_module" |> member "resources"
    |> to_list
  in
  Alcotest.(check int) "one planned resource" 1 (List.length planned);
  Alcotest.(check (option string)) "address" (Some "azurerm_public_ip.p")
    (string_value (member "address" (List.hd planned)))

let test_plan_refs_null_in_values () =
  let prog = compile_ok {|
resource "azurerm_subnet" "s" {
  name = "x"
  cidr = "10.0.0.0/24"
  vpc_name = azurerm_virtual_network.n.name
}
resource "azurerm_virtual_network" "n" {
  name = "vn"
  location = "eastus"
  address_space = ["10.0.0.0/16"]
}
|} in
  let json = Plan.to_json ~type_name:tf_name prog in
  let open Zodiac_util.Json in
  let subnet_values =
    member "planned_values" json |> member "root_module" |> member "resources"
    |> to_list
    |> List.find (fun r -> string_value (member "name" r) = Some "s")
    |> member "values"
  in
  Alcotest.(check bool) "reference unknown at plan time" true
    (member "vpc_name" subnet_values = Null)

let test_plan_rejects_garbage () =
  match Plan.of_string ~type_map "{}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty plan accepted"

let test_registry_examples_compile () =
  List.iter
    (fun src ->
      match Zodiac.Registry.compile src with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "registry example failed: %s" e)
    [
      Zodiac.Registry.appgw_assoc_buggy;
      Zodiac.Registry.appgw_assoc_fixed;
      Zodiac.Registry.mssql_db_buggy;
      Zodiac.Registry.mssql_db_fixed;
      Zodiac.Registry.quickstart_vm;
    ]

let () =
  Alcotest.run "hcl"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lex_basics;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "string escapes" `Quick test_lex_string_escapes;
          Alcotest.test_case "interpolation" `Quick test_lex_interpolation;
          Alcotest.test_case "errors" `Quick test_lex_errors;
          Alcotest.test_case "negative numbers" `Quick test_lex_negative_number;
        ] );
      ( "reference",
        List.map QCheck_alcotest.to_alcotest
          [ reference_on_soup; reference_on_edited_programs ] );
      ( "parser",
        [
          Alcotest.test_case "resource block" `Quick test_parse_resource_block;
          Alcotest.test_case "nested blocks" `Quick test_parse_nested_blocks;
          Alcotest.test_case "lists and maps" `Quick test_parse_lists_and_maps;
          Alcotest.test_case "traversal" `Quick test_parse_traversal;
          Alcotest.test_case "indexed traversal" `Quick test_parse_index_traversal;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "printer",
        [ Alcotest.test_case "print/parse roundtrip" `Quick test_print_parse_roundtrip ] );
      ( "plan",
        [
          Alcotest.test_case "roundtrip" `Quick test_plan_roundtrip;
          Alcotest.test_case "terraform shape" `Quick test_plan_shape;
          Alcotest.test_case "refs null in planned values" `Quick test_plan_refs_null_in_values;
          Alcotest.test_case "rejects garbage" `Quick test_plan_rejects_garbage;
        ] );
      ( "compile",
        [
          Alcotest.test_case "references" `Quick test_compile_references;
          Alcotest.test_case "interpolated ref" `Quick test_compile_interpolation_ref;
          Alcotest.test_case "variables" `Quick test_compile_variables;
          Alcotest.test_case "unknown types" `Quick test_compile_unknown_type_diagnostic;
          Alcotest.test_case "repeated blocks" `Quick test_compile_repeated_blocks_to_list;
          Alcotest.test_case "mixed templates" `Quick test_compile_mixed_template_degrades;
          Alcotest.test_case "decompile roundtrip" `Quick test_decompile_roundtrip;
          Alcotest.test_case "registry examples" `Quick test_registry_examples_compile;
        ] );
    ]
