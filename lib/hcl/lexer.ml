type token =
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

type spanned = { tok : token; line : int }

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

(* Bytes are read without an option: [at_end] is the only test for the
   end of input, because a source may itself contain NUL bytes, and
   [peek] is called only when it is false. The shared [buf] collects
   string literals, so a literal grows no buffer of its own. *)
type state = { src : string; mutable pos : int; mutable line : int; buf : Buffer.t }

let at_end st = st.pos >= String.length st.src

let peek st = st.src.[st.pos]

let peek_is st c = (not (at_end st)) && Char.equal (peek st) c

let has_next st = st.pos + 1 < String.length st.src

let next_is st c = has_next st && Char.equal st.src.[st.pos + 1] c

let advance st =
  if peek_is st '\n' then st.line <- st.line + 1;
  st.pos <- st.pos + 1

let is_ident_start c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

let is_ident_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true | _ -> false

let is_digit c = match c with '0' .. '9' -> true | _ -> false

let next_is_digit st = has_next st && is_digit st.src.[st.pos + 1]

let read_ident st =
  let start = st.pos in
  while (not (at_end st)) && is_ident_char (peek st) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

let read_number st =
  let start = st.pos in
  let seen_dot = ref false in
  while
    (not (at_end st))
    &&
    match peek st with
    | '0' .. '9' -> true
    | '.' when (not !seen_dot) && next_is_digit st ->
        seen_dot := true;
        true
    | _ -> false
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
    if (not (at_end st)) && is_ident_start (peek st) then
      segments := read_ident st :: !segments
    else if (not (at_end st)) && is_digit (peek st) then (
      match read_number st with
      | Int_lit i -> segments := string_of_int i :: !segments
      | _ -> raise (Lex_error ("bad index in interpolation", st.line)))
    else raise (Lex_error ("bad interpolation", st.line))
  in
  read_segment ();
  let continue = ref true in
  while !continue do
    if peek_is st '.' then begin
      advance st;
      read_segment ()
    end
    else if peek_is st '[' then begin
      advance st;
      read_segment ();
      if peek_is st ']' then advance st
      else raise (Lex_error ("expected ']' in interpolation", st.line))
    end
    else continue := false
  done;
  if peek_is st '}' then advance st
  else raise (Lex_error ("expected '}' closing interpolation", st.line));
  List.rev !segments

(* [buf] is empty on entry: every literal that was started was flushed,
   or its [Lex_error] ended the lex. *)
let read_string st =
  let line0 = st.line in
  advance st;
  (* opening quote *)
  let parts = ref [] in
  let buf = st.buf in
  let flush_lit () =
    if Buffer.length buf > 0 then begin
      parts := Ast.Lit (Buffer.contents buf) :: !parts;
      Buffer.clear buf
    end
  in
  let unterminated () = raise (Lex_error ("unterminated string", line0)) in
  let rec loop () =
    if at_end st then unterminated ();
    match peek st with
    | '"' ->
        advance st;
        flush_lit ()
    | '\\' ->
        advance st;
        if at_end st then unterminated ();
        Buffer.add_char buf (match peek st with 'n' -> '\n' | 't' -> '\t' | c -> c);
        advance st;
        loop ()
    | '$' when next_is st '{' ->
        advance st;
        advance st;
        flush_lit ();
        let traversal = read_interp_traversal st in
        parts := Ast.Interp traversal :: !parts;
        loop ()
    | c ->
        advance st;
        Buffer.add_char buf c;
        loop ()
  in
  loop ();
  Str (List.rev !parts)

let skip_line_comment st =
  while (not (at_end st)) && not (Char.equal (peek st) '\n') do
    advance st
  done

let skip_block_comment st =
  let line0 = st.line in
  let rec loop () =
    if at_end st then raise (Lex_error ("unterminated comment", line0))
    else if Char.equal (peek st) '*' && next_is st '/' then begin
      advance st;
      advance st
    end
    else begin
      advance st;
      loop ()
    end
  in
  advance st;
  advance st;
  loop ()

let tokenize src =
  let st = { src; pos = 0; line = 1; buf = Buffer.create 64 } in
  let out = ref [] in
  let emit tok = out := { tok; line = st.line } :: !out in
  let last_is_newline () =
    match !out with { tok = Newline; _ } :: _ | [] -> true | _ -> false
  in
  let rec loop () =
    if at_end st then emit Eof
    else
      match peek st with
      | ' ' | '\t' | '\r' ->
          advance st;
          loop ()
      | '\n' ->
          if not (last_is_newline ()) then emit Newline;
          advance st;
          loop ()
      | '#' ->
          skip_line_comment st;
          loop ()
      | '/' when next_is st '/' ->
          skip_line_comment st;
          loop ()
      | '/' when next_is st '*' ->
          skip_block_comment st;
          loop ()
      | '"' ->
          emit (read_string st);
          loop ()
      | '{' -> punct Lbrace
      | '}' -> punct Rbrace
      | '[' -> punct Lbrack
      | ']' -> punct Rbrack
      | '=' -> punct Equal
      | ',' -> punct Comma
      | ':' -> punct Colon
      | '.' -> punct Dot
      | '-' when next_is_digit st ->
          advance st;
          (match read_number st with
          | Int_lit i -> emit (Int_lit (-i))
          | Float_lit f -> emit (Float_lit (-.f))
          | _ -> assert false);
          loop ()
      | c when is_digit c ->
          emit (read_number st);
          loop ()
      | c when is_ident_start c ->
          emit (Ident (read_ident st));
          loop ()
      | c -> raise (Lex_error (Printf.sprintf "illegal character %C" c, st.line))
  and punct tok =
    advance st;
    emit tok;
    loop ()
  in
  loop ();
  List.rev !out

let tokenize_result src =
  match tokenize src with
  | tokens -> Ok tokens
  | exception Lex_error (msg, line) ->
      Error (Printf.sprintf "lex error: %s (line %d)" msg line)
