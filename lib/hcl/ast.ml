type string_part = Lit of string | Interp of string list

type expr =
  | E_null
  | E_bool of bool
  | E_int of int
  | E_float of float
  | E_string of string_part list
  | E_list of expr list
  | E_map of (string * expr) list
  | E_traversal of string list

type block = { btype : string; labels : string list; body : body }

and body = { battrs : (string * expr) list; bblocks : block list }

type file = block list

let string_lit s = E_string [ Lit s ]
