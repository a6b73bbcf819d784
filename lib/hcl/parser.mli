(** Recursive-descent parser from tokens to {!Ast.file}. *)

exception Parse_error of string * int
(** Message and line number. *)

val parse_tokens : Lexer.spanned list -> Ast.file
(** Parse a lexed document, walking the list itself: the parser builds
    no array or other per-document block of its own, and the empty
    list is the empty file.
    @raise Parse_error on syntax errors. *)

val parse_tokens_result : Lexer.spanned list -> (Ast.file, string) result
(** {!parse_tokens} with a [Parse_error] folded into
    ["parse error: MSG (line N)"]. *)

val parse_result : string -> (Ast.file, string) result
(** Lex and parse a complete HCL document, folding both error kinds
    into a message. *)
