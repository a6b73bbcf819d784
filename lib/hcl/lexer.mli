(** Hand-written lexer for the HCL subset. *)

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
(** Message and line number. *)

val tokenize : string -> spanned list
(** Lex a whole document. Comments ([#], [//], [/* */]) are skipped;
    runs of newlines collapse to a single [Newline] token; the list
    always ends with [Eof]. Bytes are read in place, so the lex
    allocates per token, not per byte. The end of input is tested by
    position, never by a sentinel byte: a NUL in the source is an
    illegal character like any other.
    @raise Lex_error on unterminated strings or illegal characters. *)

val tokenize_result : string -> (spanned list, string) result
(** {!tokenize} with a [Lex_error] folded into
    ["lex error: MSG (line N)"]. *)

val token_to_string : token -> string
