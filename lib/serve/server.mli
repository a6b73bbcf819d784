(** The daemon's transport loop: read request lines, answer response
    lines, never crash.

    Two transports share one per-connection loop: stdin/stdout (the
    default — the shape MCP-style plugin hosts expect) and a
    Unix-domain socket ([--socket PATH]) serving up to [max_clients]
    connections concurrently, each on its own domain against the one
    shared {!Session}. A [shutdown] request stops the server after its
    response is written; queued connections get a [shutting_down]
    error and in-flight connections are unblocked and joined.

    Backpressure is explicit: the accept loop admits at most
    [max_clients] pending connections on top of the [max_clients]
    being served; past that bound a connection is answered with a
    structured [busy] error and closed immediately — never parked in
    an invisible accept queue.

    Each connection reads in chunks: one [input] takes what the channel
    holds or does a single read, lines are cut at ['\n'], and a complete
    line is served without waiting for more input. Guard rails, per
    request: lines longer than [max_request_bytes] are answered with
    [request_too_large] (and drained, not buffered), so a connection
    holds at most [max_request_bytes + 1] bytes of a line plus one
    64 KiB chunk (and, between replies, a reply buffer of at most a
    chunk); malformed JSON with [parse_error]; [deadline_ms] is
    enforced by {!Session.handle} while the request runs — scan/validate handlers
    probe the deadline at their work boundaries and abandon the
    request with a [deadline_exceeded] error. *)

type config = {
  max_request_bytes : int;  (** default 1 MiB *)
  deadline_ms : int option;  (** default [None]: no deadline *)
  max_clients : int;
      (** concurrent connections served (and, equally, admission-queue
          bound); default 4, clamped to at least 1 *)
}

val default_config : config

val handle_line :
  ?config:config -> Session.t -> string -> Zodiac_util.Json.t
(** Parse-guard-dispatch for one request line; the response value the
    transports serialize. Exposed for the in-process round-trip tests
    and the benchmark's per-layer timings. *)

val serve_channels :
  ?config:config -> Session.t -> in_channel -> out_channel -> unit
(** Serve one connection until EOF or a [shutdown] request. Responses
    are flushed after every line. *)

val serve_stdio : ?config:config -> Session.t -> unit
(** {!serve_channels} over stdin/stdout, counted as one connection. *)

val serve_socket : ?config:config -> Session.t -> path:string -> unit
(** Bind a Unix-domain socket at [path] (replacing a stale socket
    file), then accept and serve connections concurrently on
    [max_clients] worker domains until a [shutdown] request arrives.
    The socket file is removed on exit.
    @raise Unix.Unix_error when binding fails. *)
