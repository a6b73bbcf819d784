(* Entries sit on a circular doubly linked list through a sentinel, most
   recently used first, so a hit relinks its node and an eviction takes
   the sentinel's predecessor: both O(1), and a hit allocates nothing
   ([value] is stored as the option [find] returns). *)
type 'a node = {
  key : string;
  mutable value : 'a option;  (* [None] only on the sentinel *)
  mutable prev : 'a node;
  mutable next : 'a node;
}

type 'a t = {
  table : (string, 'a node) Hashtbl.t;
  recency : 'a node;  (* the sentinel *)
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(capacity = 8192) () =
  let rec recency = { key = ""; value = None; prev = recency; next = recency } in
  {
    table = Hashtbl.create 256;
    recency;
    capacity = max 1 capacity;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let unlink node =
  node.prev.next <- node.next;
  node.next.prev <- node.prev

let push_front t node =
  node.prev <- t.recency;
  node.next <- t.recency.next;
  t.recency.next.prev <- node;
  t.recency.next <- node

let find t key =
  match Hashtbl.find t.table key with
  | node ->
      unlink node;
      push_front t node;
      t.hits <- t.hits + 1;
      node.value
  | exception Not_found ->
      t.misses <- t.misses + 1;
      None

let evict_lru t =
  let victim = t.recency.prev in
  if victim != t.recency then begin
    unlink victim;
    Hashtbl.remove t.table victim.key;
    t.evictions <- t.evictions + 1
  end

let add t key value =
  match Hashtbl.find t.table key with
  | node ->
      node.value <- Some value;
      unlink node;
      push_front t node
  | exception Not_found ->
      if Hashtbl.length t.table >= t.capacity then evict_lru t;
      let node = { key; value = Some value; prev = t.recency; next = t.recency } in
      push_front t node;
      Hashtbl.replace t.table key node

let mem t key = Hashtbl.mem t.table key
let length t = Hashtbl.length t.table
let capacity t = t.capacity
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let clear t =
  Hashtbl.reset t.table;
  t.recency.prev <- t.recency;
  t.recency.next <- t.recency
