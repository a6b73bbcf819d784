type index = Var of string | At of int

type segment = { field : string; index : index option }

type t = segment list

type env = (string * int) list

let is_var c = c >= 'a' && c <= 'z'

let has_bracket s = String.contains s '[' || String.contains s ']'

(* [s] reads FIELD[x] with a non-empty, bracket-free FIELD. *)
let indexed s =
  let n = String.length s in
  n >= 4 && s.[n - 1] = ']' && s.[n - 3] = '[' && is_var s.[n - 2]
  && String.index s '[' = n - 3 && String.index s ']' = n - 1

let segment_of_string s =
  if indexed s then
    let n = String.length s in
    { field = String.sub s 0 (n - 3); index = Some (Var (String.make 1 s.[n - 2])) }
  else { field = s; index = None }

let of_string s = List.map segment_of_string (String.split_on_char '.' s)

let field name = [ { field = name; index = None } ]

let segment_to_string seg =
  match seg.index with
  | None -> seg.field
  | Some (Var x) -> seg.field ^ "[" ^ x ^ "]"
  | Some (At i) -> seg.field ^ "[" ^ string_of_int i ^ "]"

let to_string = function
  | [ { field; index = None } ] -> field
  | p -> String.concat "." (List.map segment_to_string p)

let parse s =
  let p = of_string s in
  match List.find_opt (fun seg -> seg.field = "" || has_bracket seg.field) p with
  | None -> Ok p
  | Some seg ->
      Error (Printf.sprintf "bad segment %S: a field, optionally indexed as f[i]" seg.field)

let strip p = List.map (fun seg -> { seg with index = None }) p

let index_vars p =
  List.fold_left
    (fun acc seg ->
      match seg.index with Some (Var x) when not (List.mem x acc) -> acc @ [ x ] | _ -> acc)
    [] p

let bind env p =
  List.map
    (fun seg ->
      match seg.index with
      | Some (Var x) when List.mem_assoc x env -> { seg with index = Some (At (List.assoc x env)) }
      | _ -> seg)
    p

let elements = function
  | Value.List items -> items
  | Value.Null -> []
  | v -> [ v ]

let position env = function
  | At i -> Some i
  | Var x -> List.assoc_opt x env

(* The one walker: fold [f] over the values [p] reaches in [v]. Without
   [fanout] a list is entered at its head only, so at most one value is
   reached. *)
let rec fold ~fanout env p v f acc =
  match (p, v) with
  | [], _ -> f acc v
  | _, Value.List items ->
      if fanout then List.fold_left (fun acc x -> fold ~fanout env p x f acc) acc items
      else (match items with [] -> acc | x :: _ -> fold ~fanout env p x f acc)
  | seg :: rest, Value.Block fields -> (
      match List.assoc_opt seg.field fields with
      | None -> acc
      | Some inner -> (
          match seg.index with
          | None -> fold ~fanout env rest inner f acc
          | Some ix -> (
              match Option.bind (position env ix) (List.nth_opt (elements inner)) with
              | Some x -> fold ~fanout env rest x f acc
              | None -> acc)))
  | _ :: _, (Value.Null | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Ref _) -> acc

let get ?(env = []) p v = fold ~fanout:false env p v (fun _ x -> x) Value.Null

let get_all p v = List.rev (fold ~fanout:true [] p v (fun acc x -> x :: acc) [])

let index_range ?(env = []) p x v =
  (* the path up to the segment [x] indexes, read unindexed *)
  let rec prefix = function
    | [] -> None
    | { field; index = Some (Var y) } :: _ when String.equal x y -> Some [ { field; index = None } ]
    | seg :: rest -> Option.map (fun q -> seg :: q) (prefix rest)
  in
  Option.map (fun q -> List.length (elements (get ~env q v))) (prefix p)

let rec set p x v =
  match (p, v) with
  | [], _ -> x
  | seg :: rest, Value.Block fields ->
      let step old =
        match seg.index with
        | None -> set rest x old
        | Some ix -> (
            match (ix, old) with
            | At i, Value.List items when i < List.length items ->
                Value.List (List.mapi (fun j e -> if j = i then set rest x e else e) items)
            | At 0, (Value.Block _ | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Ref _) ->
                set rest x old
            | (At _ | Var _), _ -> old)
      in
      if List.mem_assoc seg.field fields then
        Value.Block (List.map (fun (k, old) -> (k, if k = seg.field then step old else old)) fields)
      else if seg.index = None then Value.Block (fields @ [ (seg.field, step Value.Null) ])
      else v
  | _, Value.List (item :: items) -> Value.List (set p x item :: items)
  | _ :: rest, _ -> set rest x (Value.Block [])

let equal_bound env p q =
  List.length p = List.length q
  && List.for_all2
       (fun (s : segment) (t : segment) ->
         String.equal s.field t.field
         &&
         match (s.index, t.index) with
         | None, None -> true
         | Some (Var x), Some (At i) -> List.assoc_opt x env = Some i
         | Some (Var x), Some (Var y) -> String.equal x y && not (List.mem_assoc x env)
         | Some (At i), Some (At j) -> i = j
         | (None | Some _), _ -> false)
       p q

type step = Field of string | Elem of int

(* Walks [get] and [set] in step: a field step needs the field exactly
   once (or, as the last step of an unindexed segment, not at all: [set]
   appends it), an indexed step an element, and any further step a
   block or a non-empty list. *)
let location p v =
  let rec go acc p v =
    match (p, v) with
    | [], _ -> Some (List.rev acc)
    | _, Value.List (item :: _) -> go (Elem 0 :: acc) p item
    | seg :: rest, Value.Block fields -> (
        match (List.filter (fun (k, _) -> String.equal k seg.field) fields, seg.index) with
        | [], None when rest = [] -> Some (List.rev (Field seg.field :: acc))
        | [ (_, inner) ], None -> go (Field seg.field :: acc) rest inner
        | [ (_, Value.List items) ], Some (At i) when i < List.length items ->
            go (Elem i :: Field seg.field :: acc) rest (List.nth items i)
        | [ (_, ((Value.Block _ | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Ref _) as inner)) ],
          Some (At 0) ->
            go (Field seg.field :: acc) rest inner
        | _ -> None)
    | _ :: _, (Value.List [] | Value.Null | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Ref _) -> None
  in
  go [] p v

type leaf = { path : string; head : Value.t; all : Value.t list }

type reading = { mutable hd : Value.t; mutable values : Value.t list; mutable leaf : bool }

(* A field [get] can name: it reads back as this one plain segment. *)
let plain k = not (String.contains k '.' || indexed k)

let leaves fields =
  (* per path: what [get]/[get_all] read there; resources have few paths *)
  let readings = ref [] and order = ref [] in
  let reading path =
    match List.assoc_opt path !readings with
    | Some r -> r
    | None ->
        let r = { hd = Value.Null; values = []; leaf = false } in
        readings := (path, r) :: !readings;
        r
  in
  (* [reach]: [get_all] reaches this value; [head]: so does [get]. *)
  let rec value ~reach ~head path = function
    | Value.List (_ :: _ as items) ->
        List.iteri (fun i x -> value ~reach ~head:(head && i = 0) path x) items
    | Value.Block (_ :: _ as fields) -> block ~reach ~head (path ^ ".") fields
    | Value.List [] | Value.Block [] | Value.Null | Value.Bool _ | Value.Int _ | Value.Str _
    | Value.Ref _ ->
        let r = reading path in
        if not r.leaf then begin
          r.leaf <- true;
          order := (path, r) :: !order
        end
  and block ~reach ~head prefix fields =
    ignore
      (List.fold_left
         (fun keys (k, v) ->
           let path = if prefix = "" then k else prefix ^ k in
           let reach = reach && (not (List.mem k keys)) && plain k in
           if reach then begin
             let r = reading path in
             if head then r.hd <- v;
             r.values <- v :: r.values
           end;
           value ~reach ~head:(head && reach) path v;
           k :: keys)
         [] fields)
  in
  block ~reach:true ~head:true "" fields;
  List.rev_map (fun (path, r) -> { path; head = r.hd; all = List.rev r.values }) !order
