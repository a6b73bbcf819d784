(* Deterministic-by-default spans and counters. See telemetry.mli. *)

type span = {
  span_name : string;
  depth : int;
  counters : (string * int) list;
  notes : (string * string) list;
  wall_seconds : float option;
}

type event =
  | Span_open of string
  | Span_close of span
  | Count of { span : string option; counter : string; value : int }

type sink = event -> unit

type open_span = {
  os_name : string;
  os_depth : int;
  os_started : float option;
  mutable os_counters : (string * int) list; (* reverse insertion order *)
  mutable os_notes : (string * string) list;
}

type recorder = {
  clock : (unit -> float) option;
  sinks : sink list;
  mutable stack : open_span list; (* innermost first *)
  mutable closed : span list; (* reverse span-open order *)
  mutable order : int; (* next open rank, pairs with closed for ordering *)
  mutable open_ranks : (string * int) list; (* rank per closed span *)
  mutable root : (string * int) list; (* counters outside any span *)
  lock : Mutex.t;
}

type t = recorder option

let null = None

let create ?clock ?(sinks = []) () =
  Some
    {
      clock;
      sinks;
      stack = [];
      closed = [];
      order = 0;
      open_ranks = [];
      root = [];
      lock = Mutex.create ();
    }

let enabled = Option.is_some

let deterministic = function None -> true | Some r -> Option.is_none r.clock

let locked r f =
  Mutex.lock r.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.lock) f

let emit r event = List.iter (fun sink -> sink event) r.sinks

let bump assoc key value =
  match List.assoc_opt key assoc with
  | None -> (key, value) :: assoc
  | Some v -> (key, v + value) :: List.remove_assoc key assoc

let sorted_pairs pairs = List.sort (fun (a, _) (b, _) -> compare a b) pairs

let count t counter value =
  match t with
  | None -> ()
  | Some r ->
      locked r (fun () ->
          let span =
            match r.stack with
            | [] ->
                r.root <- bump r.root counter value;
                None
            | os :: _ ->
                os.os_counters <- bump os.os_counters counter value;
                Some os.os_name
          in
          emit r (Count { span; counter; value }))

let note t key value =
  match t with
  | None -> ()
  | Some r ->
      locked r (fun () ->
          match r.stack with
          | [] -> ()
          | os :: _ -> os.os_notes <- (key, value) :: List.remove_assoc key os.os_notes)

let open_span r name =
  locked r (fun () ->
      let os =
        {
          os_name = name;
          os_depth = List.length r.stack;
          os_started = Option.map (fun clock -> clock ()) r.clock;
          os_counters = [];
          os_notes = [];
        }
      in
      r.stack <- os :: r.stack;
      r.order <- r.order + 1;
      emit r (Span_open name);
      (os, r.order - 1))

let close_span r (os, rank) =
  locked r (fun () ->
      (match r.stack with
      | top :: rest when top == os -> r.stack <- rest
      | stack -> r.stack <- List.filter (fun o -> o != os) stack);
      let wall_seconds =
        match (os.os_started, r.clock) with
        | Some t0, Some clock -> Some (clock () -. t0)
        | _ -> None
      in
      let span =
        {
          span_name = os.os_name;
          depth = os.os_depth;
          counters = sorted_pairs os.os_counters;
          notes = sorted_pairs os.os_notes;
          wall_seconds;
        }
      in
      r.closed <- span :: r.closed;
      r.open_ranks <- (os.os_name, rank) :: r.open_ranks;
      emit r (Span_close span);
      span)

let with_span t name f =
  match t with
  | None -> f ()
  | Some r ->
      let handle = open_span r name in
      Fun.protect ~finally:(fun () -> ignore (close_span r handle)) f

let timed t name f =
  match t with
  | None -> (f (), 0.)
  | Some r ->
      let handle = open_span r name in
      let finished = ref None in
      Fun.protect
        ~finally:(fun () ->
          match !finished with
          | Some _ -> ()
          | None -> ignore (close_span r handle))
        (fun () ->
          let result = f () in
          let span = close_span r handle in
          finished := Some span;
          (result, Option.value span.wall_seconds ~default:0.))

(* Spans are accumulated in close order; re-sort by open rank so nested
   spans appear under their parent in reports and traces. *)
let spans t =
  match t with
  | None -> []
  | Some r ->
      locked r (fun () ->
          let closed = List.rev r.closed and ranks = List.rev r.open_ranks in
          List.map snd
            (List.stable_sort
               (fun (a, _) (b, _) -> compare a b)
               (List.map2 (fun (_, rank) span -> (rank, span)) ranks closed)))

let totals t =
  match t with
  | None -> []
  | Some r ->
      let spans = spans t in
      let root = locked r (fun () -> r.root) in
      let acc =
        List.fold_left
          (fun acc span ->
            List.fold_left (fun acc (k, v) -> bump acc k v) acc span.counters)
          root spans
      in
      sorted_pairs acc

let find_counter span name = List.assoc_opt name span.counters

let span_json span =
  let base =
    [
      ("name", Json.String span.span_name);
      ("depth", Json.Int span.depth);
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) span.counters) );
      ( "notes",
        Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) span.notes) );
    ]
  in
  match span.wall_seconds with
  | None -> Json.Obj base
  | Some s -> Json.Obj (base @ [ ("wall_seconds", Json.Float s) ])

let to_json t =
  Json.Obj
    [
      ("deterministic", Json.Bool (deterministic t));
      ("spans", Json.List (List.map span_json (spans t)));
      ( "totals",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (totals t)) );
    ]

let summary_table t =
  let spans = spans t in
  let clocked = List.exists (fun s -> s.wall_seconds <> None) spans in
  let header =
    [ "stage" ] @ (if clocked then [ "wall (s)" ] else []) @ [ "counters" ]
  in
  let indent depth name = String.make (2 * depth) ' ' ^ name in
  let counters_cell span =
    match span.counters with
    | [] -> "-"
    | cs -> String.concat "  " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) cs)
  in
  let rows =
    List.map
      (fun span ->
        [ indent span.depth span.span_name ]
        @ (if clocked then
             [
               (match span.wall_seconds with
               | None -> "-"
               | Some s -> Printf.sprintf "%.3f" s);
             ]
           else [])
        @ [ counters_cell span ])
      spans
  in
  Tablefmt.render ~header rows
