module Value = Zodiac_iac.Value
module Graph = Zodiac_iac.Graph
module Path = Zodiac_iac.Path

type token =
  | Word of string  (* identifier, possibly with dots/brackets *)
  | Quoted of string
  | Int_tok of int
  | Sym of string  (* punctuation / operators *)
  | End

exception Err of string

let fail fmt = Printf.ksprintf (fun s -> raise (Err s)) fmt

let is_word_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '[' | ']' -> true
  | _ -> false

let tokenize src =
  let n = String.length src in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '\'' then begin
      let j = ref (!i + 1) in
      while !j < n && src.[!j] <> '\'' do
        incr j
      done;
      if !j >= n then fail "unterminated quoted string";
      out := Quoted (String.sub src (!i + 1) (!j - !i - 1)) :: !out;
      i := !j + 1
    end
    else if (c >= '0' && c <= '9') || (c = '-' && !i + 1 < n && src.[!i + 1] >= '0' && src.[!i + 1] <= '9')
    then begin
      let j = ref (!i + 1) in
      while !j < n && src.[!j] >= '0' && src.[!j] <= '9' do
        incr j
      done;
      out := Int_tok (int_of_string (String.sub src !i (!j - !i))) :: !out;
      i := !j
    end
    else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
      let j = ref !i in
      while !j < n && is_word_char src.[!j] do
        incr j
      done;
      out := Word (String.sub src !i (!j - !i)) :: !out;
      i := !j
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | "==" | "!=" | "<=" | ">=" | "->" | "=>" | "&&" ->
          out := Sym two :: !out;
          i := !i + 2
      | _ ->
          (match c with
          | '(' | ')' | ',' | ':' | '!' | '<' | '>' ->
              out := Sym (String.make 1 c) :: !out
          | _ -> fail "illegal character %C" c);
          incr i
    end
  done;
  Array.of_list (List.rev (End :: !out))

type state = { toks : token array; mutable idx : int }

let peek st = st.toks.(st.idx)

let next st =
  let tok = st.toks.(st.idx) in
  if st.idx < Array.length st.toks - 1 then st.idx <- st.idx + 1;
  tok

let expect_sym st s =
  match next st with
  | Sym s' when String.equal s s' -> ()
  | _ -> fail "expected '%s'" s

let expect_word st =
  match next st with Word w -> w | _ -> fail "expected identifier"

(* Split "r1.ip_config.subnet_id" into variable and attribute path;
   [None] for a bare identifier. *)
let split_endpoint word =
  match Path.parse word with
  | Error e -> fail "endpoint %s: %s" word e
  | Ok [ _ ] -> None
  | Ok ({ Path.field = var; index = None } :: _) ->
      let n = String.length var + 1 in
      Some { Check.var; attr = String.sub word n (String.length word - n) }
  | Ok _ -> fail "endpoint %s: a variable takes no index" word

let parse_endpoint st =
  let w = expect_word st in
  match split_endpoint w with
  | Some e -> e
  | None -> fail "expected endpoint var.attr, got %s" w

let parse_tyspec st =
  match next st with
  | Sym "!" -> Graph.Not_type (expect_word st)
  | Word ty -> Graph.Type ty
  | _ -> fail "expected type specifier"

let parse_term st =
  match peek st with
  | Int_tok i ->
      ignore (next st);
      Check.Const (Value.Int i)
  | Quoted s ->
      ignore (next st);
      Check.Const (Value.Str s)
  | Word "null" ->
      ignore (next st);
      Check.Const Value.Null
  | Word "true" ->
      ignore (next st);
      Check.Const (Value.Bool true)
  | Word "false" ->
      ignore (next st);
      Check.Const (Value.Bool false)
  | Word ("indegree" | "outdegree") -> (
      match next st with
      | Word fn ->
          expect_sym st "(";
          let var = expect_word st in
          expect_sym st ",";
          let ty = parse_tyspec st in
          expect_sym st ")";
          if String.equal fn "indegree" then Check.Indeg (var, ty)
          else Check.Outdeg (var, ty)
      | _ -> assert false)
  | Word w -> (
      ignore (next st);
      match split_endpoint w with
      | Some e -> Check.Attr e
      | None -> fail "expected term, got bare identifier %s" w)
  | Sym s -> fail "expected term, got '%s'" s
  | End -> fail "expected term, got end of input"

let parse_atom st =
  match peek st with
  | Word "conn" ->
      ignore (next st);
      expect_sym st "(";
      let a = parse_endpoint st in
      expect_sym st "->";
      let b = parse_endpoint st in
      expect_sym st ")";
      Check.Conn (a, b)
  | Word "path" ->
      ignore (next st);
      expect_sym st "(";
      let a = expect_word st in
      expect_sym st "->";
      let b = expect_word st in
      expect_sym st ")";
      Check.Path (a, b)
  | Word "coconn" ->
      ignore (next st);
      expect_sym st "(";
      let a = parse_endpoint st in
      expect_sym st "->";
      let b = parse_endpoint st in
      expect_sym st ",";
      let c = parse_endpoint st in
      expect_sym st "->";
      let d = parse_endpoint st in
      expect_sym st ")";
      Check.Coconn ((a, b), (c, d))
  | Word "copath" ->
      ignore (next st);
      expect_sym st "(";
      let a = expect_word st in
      expect_sym st "->";
      let b = expect_word st in
      expect_sym st ",";
      let c = expect_word st in
      expect_sym st "->";
      let d = expect_word st in
      expect_sym st ")";
      Check.Copath ((a, b), (c, d))
  | Word ("overlap" | "contain" | "length") -> (
      match next st with
      | Word fn ->
          expect_sym st "(";
          let t1 = parse_term st in
          expect_sym st ",";
          let t2 = parse_term st in
          expect_sym st ")";
          let f =
            match fn with
            | "overlap" -> Check.Overlap
            | "contain" -> Check.Contain
            | _ -> Check.Length
          in
          Check.Func (f, t1, t2)
      | _ -> assert false)
  | _ -> (
      let t1 = parse_term st in
      match next st with
      | Sym ("==" | "!=" | "<=" | ">=" | "<" | ">" as op) ->
          let t2 = parse_term st in
          let op =
            match op with
            | "==" -> Check.Eq
            | "!=" -> Check.Ne
            | "<=" -> Check.Le
            | ">=" -> Check.Ge
            | "<" -> Check.Lt
            | _ -> Check.Gt
          in
          Check.Cmp (op, t1, t2)
      | _ -> fail "expected comparison operator")

let parse_conj st =
  match peek st with
  | Sym "!" ->
      ignore (next st);
      Check.Not (parse_atom st)
  | _ -> parse_atom st

let parse_expr st =
  let first = parse_conj st in
  let rec loop acc =
    match peek st with
    | Sym "&&" ->
        ignore (next st);
        loop (parse_conj st :: acc)
    | _ -> List.rev acc
  in
  match loop [ first ] with [ single ] -> single | many -> Check.And many

let parse_bindings st =
  let parse_one () =
    let var = expect_word st in
    expect_sym st ":";
    let btype = expect_word st in
    { Check.var; btype }
  in
  let rec loop acc =
    match peek st with
    | Sym "," ->
        ignore (next st);
        loop (parse_one () :: acc)
    | _ -> List.rev acc
  in
  loop [ parse_one () ]

let parse_check st =
  (match next st with
  | Word "let" -> ()
  | _ -> fail "expected 'let'");
  let bindings = parse_bindings st in
  (match next st with
  | Word "in" -> ()
  | _ -> fail "expected 'in'");
  let cond = parse_expr st in
  expect_sym st "=>";
  let stmt = parse_expr st in
  (match peek st with End -> () | _ -> fail "trailing input after check");
  Check.make bindings cond stmt

let parse src =
  match parse_check { toks = tokenize src; idx = 0 } with
  | check -> Ok check
  | exception Err msg -> Error (Printf.sprintf "%s in %S" msg src)

let parse_exn src =
  match parse src with Ok c -> c | Error e -> invalid_arg ("Spec_parser: " ^ e)

let parse_many srcs =
  let rec loop i acc = function
    | [] -> Ok (List.rev acc)
    | src :: rest -> (
        match parse src with
        | Ok c -> loop (i + 1) (c :: acc) rest
        | Error e -> Error (Printf.sprintf "check %d: %s" i e))
  in
  loop 1 [] srcs
