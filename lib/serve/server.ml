module Json = Zodiac_util.Json

type config = {
  max_request_bytes : int;
  deadline_ms : int option;
  max_clients : int;
}

let default_config =
  { max_request_bytes = 1 lsl 20; deadline_ms = None; max_clients = 4 }

(* Bounded line reader over one connection. Each [input] takes what the
   channel already holds or does one [read], into a chunk the reader
   keeps; a line is cut from the chunk at its ['\n'] and what follows
   stays there for the next call, so a complete line is never held
   back waiting for more input. A line that spans chunks is gathered
   in [line], at most [limit + 1] bytes: enough for [Protocol.parse]
   to refuse it by size. Anything longer is drained, never buffered,
   so a hostile client cannot balloon the daemon's memory. *)
type reader = {
  ic : in_channel;
  limit : int;
  chunk : Bytes.t;
  mutable pos : int; (* next unread byte of [chunk] *)
  mutable len : int; (* bytes of [chunk] the last [input] filled *)
  mutable line : Bytes.t; (* a spanning line, gathered so far *)
  mutable held : int; (* bytes of [line] in use *)
}

let chunk_bytes = 65536

let reader ic ~limit =
  {
    ic;
    limit;
    chunk = Bytes.create chunk_bytes;
    pos = 0;
    len = 0;
    line = Bytes.empty;
    held = 0;
  }

(* [false] at end of input. *)
let refill r =
  r.pos <- 0;
  r.len <- input r.ic r.chunk 0 (Bytes.length r.chunk);
  r.len > 0

let rec newline_from b i stop =
  if i = stop || Bytes.unsafe_get b i = '\n' then i
  else newline_from b (i + 1) stop

let hold r n =
  let need = r.held + n in
  if need > Bytes.length r.line then begin
    let grown =
      Bytes.create (min (r.limit + 1) (max need (2 * Bytes.length r.line)))
    in
    Bytes.blit r.line 0 grown 0 r.held;
    r.line <- grown
  end;
  Bytes.blit r.chunk r.pos r.line r.held n;
  r.held <- need

let release r =
  let s = Bytes.sub_string r.line 0 r.held in
  r.line <- Bytes.empty;
  r.held <- 0;
  s

let rec drain r =
  if r.pos = r.len && not (refill r) then `Oversized
  else
    let nl = newline_from r.chunk r.pos r.len in
    if nl < r.len then begin
      r.pos <- nl + 1;
      `Oversized
    end
    else begin
      r.pos <- r.len;
      drain r
    end

let rec read_line r =
  if r.pos = r.len && not (refill r) then
    if r.held = 0 then `Eof else `Line (release r)
  else
    let nl = newline_from r.chunk r.pos r.len in
    let n = nl - r.pos in
    if r.held + n > r.limit + 1 then begin
      r.line <- Bytes.empty;
      r.held <- 0;
      r.pos <- nl;
      drain r
    end
    else if nl = r.len then begin
      hold r n;
      r.pos <- r.len;
      read_line r
    end
    else
      let line =
        if r.held = 0 then Bytes.sub_string r.chunk r.pos n
        else begin
          hold r n;
          release r
        end
      in
      r.pos <- nl + 1;
      `Line line

(* [buf] is the connection's, reused from reply to reply; one that grew
   past a chunk for a large reply goes back to its initial size. *)
let respond buf oc json =
  Buffer.clear buf;
  Json.to_buffer buf json;
  Buffer.add_char buf '\n';
  Buffer.output_buffer oc buf;
  flush oc;
  if Buffer.length buf > chunk_bytes then Buffer.reset buf

let handle_line ?(config = default_config) session line =
  match Protocol.parse ~max_bytes:config.max_request_bytes line with
  | Error (id, e) -> Protocol.error_response ~id e
  | Ok { Protocol.id; verb } -> (
      match Session.handle_extra ?deadline_ms:config.deadline_ms session verb with
      | Ok (payload, extra) -> Protocol.ok_response ~extra ~id payload
      | Error e -> Protocol.error_response ~id e)

let serve_channels ?(config = default_config) session ic oc =
  let r = reader ic ~limit:config.max_request_bytes in
  let buf = Buffer.create 4096 in
  let rec loop () =
    if Session.stopping session then ()
    else
      match read_line r with
      | `Eof -> ()
      | `Oversized ->
          respond buf oc
            (Protocol.error_response ~id:Json.Null
               {
                 Protocol.code = "request_too_large";
                 message =
                   Printf.sprintf "request line exceeds the %d-byte limit"
                     config.max_request_bytes;
               });
          loop ()
      | `Line line when String.trim line = "" -> loop ()
      | `Line line ->
          respond buf oc (handle_line ~config session line);
          loop ()
  in
  loop ()

let serve_stdio ?config session =
  Session.connection_opened session;
  Fun.protect
    ~finally:(fun () -> Session.connection_closed session)
    (fun () -> serve_channels ?config session stdin stdout)

let remove_stale_socket path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (try Unix.unlink path with _ -> ())
  | _ ->
      invalid_arg
        (Printf.sprintf "serve: %s exists and is not a socket" path)

(* Admission queue between the accept loop and the worker domains.
   Bounded at [max_clients] *pending* connections (on top of the
   [max_clients] being served): past the bound the accept loop answers
   a structured [busy] error and closes — an explicit backpressure
   signal, never an accept-queue stall the client can't see. *)
type admission = {
  lock : Mutex.t;
  nonempty : Condition.t;
  pending : Unix.file_descr Queue.t;
  mutable closed : bool;
}

let make_admission () =
  {
    lock = Mutex.create ();
    nonempty = Condition.create ();
    pending = Queue.create ();
    closed = false;
  }

let with_lock lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* [Some conn] if admitted, [None] past the bound. *)
let admit session adm ~bound conn =
  with_lock adm.lock (fun () ->
      if adm.closed || Queue.length adm.pending >= bound then None
      else begin
        Queue.push conn adm.pending;
        Session.set_queue_depth session (Queue.length adm.pending);
        Condition.signal adm.nonempty;
        Some conn
      end)

(* Blocks until a connection is pending or the queue is closed. *)
let take session adm =
  with_lock adm.lock (fun () ->
      let rec wait () =
        if not (Queue.is_empty adm.pending) then begin
          let conn = Queue.pop adm.pending in
          Session.set_queue_depth session (Queue.length adm.pending);
          Some conn
        end
        else if adm.closed then None
        else begin
          Condition.wait adm.nonempty adm.lock;
          wait ()
        end
      in
      wait ())

(* Drains the queue under the lock so each pending fd has exactly one
   owner: the shutdown path refuses the leftovers, and the woken
   workers find the queue empty and exit via [take]'s [None]. *)
let close_admission adm =
  with_lock adm.lock (fun () ->
      adm.closed <- true;
      let leftover = Queue.fold (fun acc conn -> conn :: acc) [] adm.pending in
      Queue.clear adm.pending;
      Condition.broadcast adm.nonempty;
      leftover)

let refuse conn code message =
  let oc = Unix.out_channel_of_descr conn in
  (try
     respond (Buffer.create 256) oc
       (Protocol.error_response ~id:Json.Null { Protocol.code; message })
   with Sys_error _ | Unix.Unix_error _ -> ());
  try Unix.close conn with _ -> ()

(* Connections currently being served, so shutdown can unblock worker
   domains parked in [input] on an idle client. *)
type active = { alock : Mutex.t; mutable fds : Unix.file_descr list }

let worker session config adm active =
  let rec loop () =
    match take session adm with
    | None -> ()
    | Some conn when Session.stopping session ->
        (* Popped after a [shutdown] was handled: answer the still-
           queued client with the same structured refusal the accept-
           loop drain gives, instead of a silent close. *)
        refuse conn "shutting_down" "server is shutting down";
        loop ()
    | Some conn ->
        with_lock active.alock (fun () -> active.fds <- conn :: active.fds);
        Session.connection_opened session;
        let ic = Unix.in_channel_of_descr conn in
        let oc = Unix.out_channel_of_descr conn in
        (try serve_channels ~config session ic oc
         with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
        (try flush oc with _ -> ());
        (* Deregister before closing: once the fd is closed its number
           can be reused, and the shutdown loop must never [shutdown]
           a descriptor that now belongs to someone else. *)
        with_lock active.alock (fun () ->
            active.fds <- List.filter (fun fd -> fd != conn) active.fds);
        (try Unix.close conn with _ -> ());
        Session.connection_closed session;
        loop ()
  in
  loop ()

let serve_socket ?(config = default_config) session ~path =
  (* A client that hangs up before its response would otherwise turn
     the write into a process-killing SIGPIPE; with it ignored the
     write fails with EPIPE, which the workers already swallow. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  remove_stale_socket path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with _ -> ());
      try Unix.unlink path with _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      let max_clients = max 1 config.max_clients in
      Unix.listen sock (2 * max_clients);
      let adm = make_admission () in
      let active = { alock = Mutex.create (); fds = [] } in
      let workers =
        List.init max_clients (fun _ ->
            Domain.spawn (fun () -> worker session config adm active))
      in
      (* The accept loop polls so a [shutdown] handled by a worker is
         noticed within one select tick even with no new clients. *)
      let rec accept_loop () =
        if Session.stopping session then ()
        else begin
          (match Unix.select [ sock ] [] [] 0.05 with
          | [], _, _ -> ()
          | _ -> (
              match Unix.accept sock with
              | exception Unix.Unix_error _ -> ()
              | conn, _ -> (
                  match admit session adm ~bound:max_clients conn with
                  | Some _ -> ()
                  | None ->
                      refuse conn "busy"
                        (Printf.sprintf
                           "server at capacity (%d clients + %d queued); retry"
                           max_clients max_clients))));
          accept_loop ()
        end
      in
      accept_loop ();
      (* Shutdown: stop admitting, answer the still-queued connections
         with a structured error, then unblock workers parked on idle
         clients and join them. *)
      let leftover = close_admission adm in
      List.iter
        (fun conn -> refuse conn "shutting_down" "server is shutting down")
        leftover;
      Session.set_queue_depth session 0;
      with_lock active.alock (fun () ->
          List.iter
            (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with _ -> ())
            active.fds);
      List.iter Domain.join workers)
