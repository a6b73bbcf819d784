type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_buffer ?(pretty = false) buf json =
  let indent n =
    if pretty then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * n) ' ')
    end
  in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string buf (Printf.sprintf "%.1f" f)
        else begin
          (* %.17g of a large integral float has no '.' or exponent
             ("1e15" -> "1000000000000000"), which would read back as an
             Int; keep the constructor by forcing a decimal point. *)
          let text = Printf.sprintf "%.17g" f in
          Buffer.add_string buf
            (if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text
             then text
             else text ^ ".0")
        end
    | String s -> escape_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            indent (depth + 1);
            emit (depth + 1) item)
          items;
        indent depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            indent (depth + 1);
            escape_string buf k;
            Buffer.add_string buf (if pretty then ": " else ":");
            emit (depth + 1) v)
          fields;
        indent depth;
        Buffer.add_char buf '}'
  in
  emit 0 json

let to_string ?pretty json =
  let buf = Buffer.create 256 in
  to_buffer ?pretty buf json;
  Buffer.contents buf

(* Recursive-descent parser over a string with a mutable cursor. *)

type cursor = { src : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let rec skip_ws cur =
  match peek cur with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      skip_ws cur
  | _ -> ()

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected '%c'" c)

let parse_literal cur lit value =
  let n = String.length lit in
  if cur.pos + n <= String.length cur.src && String.sub cur.src cur.pos n = lit then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected '%s'" lit)

(* The first ['"'] or ['\\'] at or after [i], or the end of [s]. *)
let rec special_from s i =
  if i >= String.length s then i
  else match String.unsafe_get s i with '"' | '\\' -> i | _ -> special_from s (i + 1)

(* Each domain's buffer for literals with escapes: it keeps its size
   from one literal to the next, so decoding a large one does not
   regrow block after block, each allocated straight in the major
   heap. A literal over 64 KiB gives the buffer back. *)
let literal_scratch = Domain.DLS.new_key (fun () -> Buffer.create 256)

(* Runs between escapes are copied whole; a literal without escapes is
   one [String.sub]. *)
let parse_string_body cur =
  let s = cur.src in
  let stop = special_from s cur.pos in
  if stop < String.length s && s.[stop] = '"' then begin
    let literal = String.sub s cur.pos (stop - cur.pos) in
    cur.pos <- stop + 1;
    literal
  end
  else
    let buf = Domain.DLS.get literal_scratch in
    (* a failed parse may have left a large literal behind *)
    if Buffer.length buf > 65536 then Buffer.reset buf else Buffer.clear buf;
    let rec loop () =
      let stop = special_from s cur.pos in
      Buffer.add_substring buf s cur.pos (stop - cur.pos);
      cur.pos <- stop;
      match peek cur with
      | None -> fail cur "unterminated string"
      | Some '"' ->
          advance cur;
          let literal = Buffer.contents buf in
          if Buffer.length buf > 65536 then Buffer.reset buf;
          literal
      | Some _ ->
          advance cur;
          (match peek cur with
          | Some '"' -> Buffer.add_char buf '"'
          | Some '\\' -> Buffer.add_char buf '\\'
          | Some '/' -> Buffer.add_char buf '/'
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 'b' -> Buffer.add_char buf '\b'
          | Some 'f' -> Buffer.add_char buf '\012'
          | Some 'u' ->
              (* Decode \uXXXX; non-ASCII code points are emitted as UTF-8. *)
              if cur.pos + 4 >= String.length cur.src then fail cur "bad unicode escape";
              let hex = String.sub cur.src (cur.pos + 1) 4 in
              let hex_digit c =
                match c with
                | '0' .. '9' -> Char.code c - Char.code '0'
                | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
                | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
                | _ -> fail cur "bad unicode escape"
              in
              let code =
                String.fold_left (fun acc c -> (acc * 16) + hex_digit c) 0 hex
              in
              cur.pos <- cur.pos + 4;
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
          | _ -> fail cur "bad escape");
          advance cur;
          loop ()
    in
    loop ()

let parse_number cur =
  let start = cur.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec loop () =
    match peek cur with
    | Some c when is_num_char c ->
        advance cur;
        loop ()
    | _ -> ()
  in
  loop ();
  let text = String.sub cur.src start (cur.pos - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail cur "bad number")

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> parse_literal cur "null" Null
  | Some 't' -> parse_literal cur "true" (Bool true)
  | Some 'f' -> parse_literal cur "false" (Bool false)
  | Some '"' ->
      advance cur;
      String (parse_string_body cur)
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        List []
      end
      else begin
        let items = ref [ parse_value cur ] in
        skip_ws cur;
        while peek cur = Some ',' do
          advance cur;
          items := parse_value cur :: !items;
          skip_ws cur
        done;
        expect cur ']';
        List (List.rev !items)
      end
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else begin
        let parse_field () =
          skip_ws cur;
          expect cur '"';
          let key = parse_string_body cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          (key, v)
        in
        let fields = ref [ parse_field () ] in
        skip_ws cur;
        while peek cur = Some ',' do
          advance cur;
          fields := parse_field () :: !fields;
          skip_ws cur
        done;
        expect cur '}';
        Obj (List.rev !fields)
      end
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character '%c'" c)

let of_string s =
  let cur = { src = s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  v

let of_string_result ?max_bytes s =
  match max_bytes with
  | Some limit when String.length s > limit ->
      Error
        (Printf.sprintf "payload of %d bytes exceeds the %d-byte limit"
           (String.length s) limit)
  | _ -> (
      match of_string s with
      | v -> Ok v
      | exception Parse_error msg -> Error msg
      | exception Stack_overflow -> Error "nesting too deep")

let member key = function
  | Obj fields -> ( match List.assoc_opt key fields with Some v -> v | None -> Null)
  | _ -> Null

let to_list = function List items -> items | _ -> []

let string_value = function String s -> Some s | _ -> None

let int_value = function Int i -> Some i | _ -> None

let bool_value = function Bool b -> Some b | _ -> None

let float_value = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let equal a b = a = b
