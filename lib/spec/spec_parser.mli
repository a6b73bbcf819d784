(** Parser for the concrete check syntax produced by {!Spec_printer}.

    Grammar (informal):
    {v
    check    := 'let' bindings 'in' expr '=>' expr
    bindings := var ':' TYPE (',' var ':' TYPE)*
    expr     := conj ('&&' conj)*
    conj     := '!'? atom
    atom     := 'conn' '(' ep '->' ep ')'
              | 'path' '(' var '->' var ')'
              | 'coconn' '(' ep '->' ep ',' ep '->' ep ')'
              | 'copath' '(' var '->' var ',' var '->' var ')'
              | ('overlap'|'contain'|'length') '(' term ',' term ')'
              | term ('=='|'!='|'<='|'>='|'<'|'>') term
    term     := 'null' | 'true' | 'false' | INT | '\'' STRING '\''
              | ('indegree'|'outdegree') '(' var ',' '!'? TYPE ')'
              | var '.' attrpath
    v}
    [attrpath] is {!Zodiac_iac.Path}'s grammar, read strictly: a
    malformed index ([rule\[ab\]], [rule\[0\]], [rule\[\]]) is an
    error that names the endpoint. *)

val parse : string -> (Check.t, string) result

val parse_exn : string -> Check.t
(** @raise Invalid_argument on syntax errors. *)

val parse_many : string list -> (Check.t list, string) result
(** Parse a batch, reporting the first failing input with its
    1-based position ("check N: ..."). *)
