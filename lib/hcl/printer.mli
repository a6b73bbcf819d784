(** Pretty-printer emitting HCL text from the AST (the inverse of
    {!Parser.parse_result} up to formatting). *)

val expr_to_string : Ast.expr -> string
val file_to_string : Ast.file -> string
