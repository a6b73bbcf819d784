(** Compilation between HCL syntax and the resource-graph program model
    (the analogue of [terraform plan]).

    Compilation resolves [variable] defaults, maps Terraform resource
    type names (e.g. ["azurerm_subnet"]) to Zodiac's canonical type
    names (e.g. ["SUBNET"]) through a caller-supplied mapping, turns
    traversals and whole-string interpolations into {!Zodiac_iac.Value.Ref}
    values, and groups repeated nested blocks into lists. *)

type diagnostic = { message : string; context : string }

val compile_file :
  type_map:(string -> string option) ->
  Ast.file ->
  Zodiac_iac.Program.t * diagnostic list
(** Unknown resource types are kept with their literal type name and
    reported as diagnostics; unresolvable variables become literal
    ["${var.x}"] strings. *)

val compile_tokens :
  type_map:(string -> string option) ->
  Lexer.spanned list ->
  (Zodiac_iac.Program.t * diagnostic list, string) result
(** Parse a lexed document, then compile it. A caller that also needs
    the tokens (the scanner's line index) lexes once and passes them
    here. *)

val compile_string :
  type_map:(string -> string option) ->
  string ->
  (Zodiac_iac.Program.t * diagnostic list, string) result
(** {!Lexer.tokenize_result}, then {!compile_tokens}. *)

val decompile :
  type_name:(string -> string) ->
  Zodiac_iac.Program.t ->
  Ast.file
(** Render a program back to HCL blocks. [type_name] maps canonical type
    names back to Terraform type names. *)

val program_to_hcl :
  type_name:(string -> string) -> Zodiac_iac.Program.t -> string
(** [decompile] composed with the printer. *)
