(** ASCII table rendering for experiment reports.

    The benchmark harness regenerates every table and figure of the paper
    as text; this module renders aligned tables and simple horizontal bar
    charts so the output is directly comparable to the paper. *)

val render : header:string list -> string list list -> string
(** [render ~header rows] draws a boxed table with column widths fitted
    to content. Rows shorter than the header are padded with blanks. *)

val bar_chart :
  ?width:int -> title:string -> (string * float) list -> string
(** [bar_chart ~title series] renders one horizontal bar per entry,
    scaled so the largest value spans [width] (default 50) cells. *)

val section : string -> string
(** A visually distinct section banner. *)
