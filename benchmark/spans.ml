(* The traced pass's span recorder: name, start, end and the span that
   caused it, kept in memory until the pass ends. Spans come from two
   places: the benchmark's own [with_span] around calls into a layer,
   and the program's existing [Telemetry] stage spans, which a sink
   timestamps as they open and close. Both share one stack, so a
   benchmark span opened around [Pipeline.mine_only] parents the
   pipeline's [corpus]/[kb]/[mine] spans. Spans must open and close on
   the recording domain. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  start : float;
  stop : float;
  minor_words : float;  (** [Gc.quick_stat] minor words allocated inside *)
}

type t = {
  clock : unit -> float;
  mutable next : int;
  mutable stack : (int * string * float * float) list;
      (** open spans: id, name, start, minor words at start *)
  mutable closed : span list;  (** most recent first *)
}

let create ?(clock = Unix.gettimeofday) () =
  { clock; next = 0; stack = []; closed = [] }

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let open_span t name =
  let id = t.next in
  t.next <- id + 1;
  t.stack <- (id, name, t.clock (), minor_words ()) :: t.stack

let close_span t =
  match t.stack with
  | [] -> ()
  | (id, name, start, words) :: rest ->
      t.stack <- rest;
      let parent = match rest with (p, _, _, _) :: _ -> Some p | [] -> None in
      t.closed <-
        {
          id;
          parent;
          name;
          start;
          stop = t.clock ();
          minor_words = minor_words () -. words;
        }
        :: t.closed

let with_span t name f =
  open_span t name;
  Fun.protect ~finally:(fun () -> close_span t) f

(* Mirror a Telemetry recorder's spans into [t]. *)
let sink t = function
  | Zodiac_util.Telemetry.Span_open name -> open_span t name
  | Zodiac_util.Telemetry.Span_close _ -> close_span t
  | Zodiac_util.Telemetry.Count _ -> ()

let spans t = List.rev t.closed
let duration s = s.stop -. s.start

(* The first span to close with this name. *)
let find t name =
  match List.find_opt (fun s -> String.equal s.name name) (spans t) with
  | Some s -> s
  | None -> failwith ("no span named " ^ name)

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
        | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None clipped

(* A span's duration minus the part of its interval that its child
   spans cover. *)
let self_time t s =
  let children =
    List.filter_map
      (fun c -> if c.parent = Some s.id then Some (c.start, c.stop) else None)
      (spans t)
  in
  duration s -. covered ~lo:s.start ~hi:s.stop children
