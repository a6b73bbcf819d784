exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* v2: KB observation rows carry the bounded-table residue
   (evicted mass + CIDR flag); stale v1 cache entries decode as
   [Corrupt] and are rebuilt. *)
let version = 2

type sink = Buffer.t

type src = { data : string; mutable pos : int }

let sink () = Buffer.create 4096
let contents = Buffer.contents
let src_of_string data = { data; pos = 0 }

let write_byte b i = Buffer.add_char b (Char.chr (i land 0xff))

let read_byte s =
  if s.pos >= String.length s.data then corrupt "unexpected end of input";
  let c = Char.code s.data.[s.pos] in
  s.pos <- s.pos + 1;
  c

let write_bool b v = write_byte b (if v then 1 else 0)

let read_bool s =
  match read_byte s with
  | 0 -> false
  | 1 -> true
  | n -> corrupt "bad bool byte %d" n

(* Rotate-left by one over the native int width: small non-negative
   ints stay small, small negative ints become small odd naturals, and
   the mapping is a bijection on all of [int] (unlike the textbook
   zigzag, which drops the top magnitude bit on 63-bit ints). *)
let rot1 i = (i lsl 1) lor (i lsr (Sys.int_size - 1))
let unrot1 z = (z lsr 1) lor (z lsl (Sys.int_size - 1))

let write_int b i =
  let rec go v =
    if v land lnot 0x7f = 0 then write_byte b v
    else begin
      write_byte b (0x80 lor (v land 0x7f));
      go (v lsr 7)
    end
  in
  go (rot1 i)

let read_int s =
  let rec go shift acc =
    if shift > Sys.int_size then corrupt "varint too long";
    let byte = read_byte s in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 = 0 then acc else go (shift + 7) acc
  in
  unrot1 (go 0 0)

let write_float b f =
  let bits = Int64.bits_of_float f in
  for k = 0 to 7 do
    write_byte b (Int64.to_int (Int64.shift_right_logical bits (8 * k)) land 0xff)
  done

let read_float s =
  let bits = ref 0L in
  for k = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (read_byte s)) (8 * k))
  done;
  Int64.float_of_bits !bits

let write_string b s =
  write_int b (String.length s);
  Buffer.add_string b s

let read_string s =
  let n = read_int s in
  if n < 0 || s.pos + n > String.length s.data then corrupt "bad string length %d" n;
  let r = String.sub s.data s.pos n in
  s.pos <- s.pos + n;
  r

let write_option w b = function
  | None -> write_byte b 0
  | Some v ->
      write_byte b 1;
      w b v

let read_option r s =
  match read_byte s with
  | 0 -> None
  | 1 -> Some (r s)
  | n -> corrupt "bad option byte %d" n

let write_list w b xs =
  write_int b (List.length xs);
  List.iter (w b) xs

let read_list r s =
  let n = read_int s in
  (* every element consumes at least one byte, so a length beyond the
     remaining input is necessarily corrupt — reject it before
     allocating *)
  if n < 0 || n > String.length s.data - s.pos then corrupt "bad list length %d" n;
  List.init n (fun _ -> r s)

let write_table wk wv b tbl =
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let rows = List.sort (fun (k1, _) (k2, _) -> Stdlib.compare k1 k2) rows in
  write_list
    (fun b (k, v) ->
      wk b k;
      wv b v)
    b rows

let read_table rk rv s =
  let rows =
    read_list
      (fun s ->
        let k = rk s in
        let v = rv s in
        (k, v))
      s
  in
  let tbl = Hashtbl.create (max 16 (List.length rows)) in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) rows;
  tbl

(* ------------------------------------------------------------------ *)
(* Typed codecs                                                        *)
(* ------------------------------------------------------------------ *)

type 'a t = { write : sink -> 'a -> unit; read : src -> 'a }

let int = { write = write_int; read = read_int }
let bool = { write = write_bool; read = read_bool }
let string = { write = write_string; read = read_string }

let conv encode decode c =
  { write = (fun o x -> c.write o (encode x)); read = (fun s -> decode (c.read s)) }

(* Components are read in sequence with [let]: a tuple expression would
   evaluate its components in an unspecified order. *)
let pair ca cb =
  {
    write =
      (fun o (a, b) ->
        ca.write o a;
        cb.write o b);
    read =
      (fun s ->
        let a = ca.read s in
        let b = cb.read s in
        (a, b));
  }

let triple ca cb cc =
  {
    write =
      (fun o (a, b, c) ->
        ca.write o a;
        cb.write o b;
        cc.write o c);
    read =
      (fun s ->
        let a = ca.read s in
        let b = cb.read s in
        let c = cc.read s in
        (a, b, c));
  }

let quad ca cb cc cd =
  {
    write =
      (fun o (a, b, c, d) ->
        ca.write o a;
        cb.write o b;
        cc.write o c;
        cd.write o d);
    read =
      (fun s ->
        let a = ca.read s in
        let b = cb.read s in
        let c = cc.read s in
        let d = cd.read s in
        (a, b, c, d));
  }

let quint ca cb cc cd ce =
  {
    write =
      (fun o (a, b, c, d, e) ->
        ca.write o a;
        cb.write o b;
        cc.write o c;
        cd.write o d;
        ce.write o e);
    read =
      (fun s ->
        let a = ca.read s in
        let b = cb.read s in
        let c = cc.read s in
        let d = cd.read s in
        let e = ce.read s in
        (a, b, c, d, e));
  }

let table ck cv = { write = write_table ck.write cv.write; read = read_table ck.read cv.read }

(* ------------------------------------------------------------------ *)
(* Sealed envelopes                                                    *)
(* ------------------------------------------------------------------ *)

let magic = "ZDC1"

let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let write_fixed64 b bits =
  for k = 0 to 7 do
    write_byte b (Int64.to_int (Int64.shift_right_logical bits (8 * k)) land 0xff)
  done

let read_fixed64 s =
  let bits = ref 0L in
  for k = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (read_byte s)) (8 * k))
  done;
  !bits

let encode ~stage fill =
  let body = sink () in
  fill body;
  let payload = Buffer.contents body in
  let out = sink () in
  Buffer.add_string out magic;
  write_int out version;
  write_string out stage;
  write_string out payload;
  write_fixed64 out (fnv64 payload);
  Buffer.contents out

let decode ~stage data read =
  try
    if String.length data < 4 || not (String.equal (String.sub data 0 4) magic) then
      corrupt "bad magic";
    let s = src_of_string data in
    s.pos <- 4;
    let v = read_int s in
    if v <> version then corrupt "stale codec version %d (expected %d)" v version;
    let st = read_string s in
    if not (String.equal st stage) then
      corrupt "stage mismatch: %S (expected %S)" st stage;
    let payload = read_string s in
    let sum = read_fixed64 s in
    if not (Int64.equal sum (fnv64 payload)) then corrupt "checksum mismatch";
    Ok (read (src_of_string payload))
  with Corrupt msg -> Error msg

(* Each domain's scratch text for [fingerprint]. A part can be a whole
   source file, and a fresh text that size would be allocated straight
   in the major heap on every call; a text over 64 KiB is not kept. *)
let fingerprint_scratch = Domain.DLS.new_key (fun () -> ref Bytes.empty)

let fingerprint parts =
  (* length-prefix each part so the digest is injective on the list,
     then MD5 for a short stable hex key *)
  let pieces =
    List.concat_map (fun p -> [ string_of_int (String.length p); ":"; p ]) parts
  in
  let total = List.fold_left (fun n s -> n + String.length s) 0 pieces in
  let scratch = Domain.DLS.get fingerprint_scratch in
  if Bytes.length !scratch < total then scratch := Bytes.create total;
  let text = !scratch in
  ignore
    (List.fold_left
       (fun pos s ->
         Bytes.blit_string s 0 text pos (String.length s);
         pos + String.length s)
       0 pieces);
  if total > 65536 then scratch := Bytes.empty;
  Digest.to_hex (Digest.subbytes text 0 total)
