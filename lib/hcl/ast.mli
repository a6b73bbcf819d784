(** Abstract syntax of the HCL subset Zodiac understands.

    This covers the Terraform configuration-language core: top-level
    blocks ([resource], [variable], [provider], [output], ...), nested
    blocks, attribute assignments, literals, lists, maps, traversals
    ([azurerm_subnet.a.id]) and string templates with [${...}]
    interpolation. Functions, conditionals and meta-arguments such as
    [count]/[for_each] are out of scope — the crawled corpus is compiled
    to deployment plans before mining, and plans have those expanded. *)

type string_part =
  | Lit of string
  | Interp of string list  (** a traversal inside [${...}] *)

type expr =
  | E_null
  | E_bool of bool
  | E_int of int
  | E_float of float
  | E_string of string_part list
  | E_list of expr list
  | E_map of (string * expr) list
  | E_traversal of string list  (** bare reference, e.g. [var.x] *)

type block = { btype : string; labels : string list; body : body }

and body = { battrs : (string * expr) list; bblocks : block list }

type file = block list

val string_lit : string -> expr
