(** [eventorder serve] — the multi-client analysis daemon.

    One process, one listening socket (Unix-domain or TCP), newline-
    delimited JSON both ways: each request line is an
    [eventorder.request/1] document and each response line is exactly
    one [eventorder.response/1] / [eventorder.stats/1] /
    [eventorder.error/1] document (see docs/PROTOCOL.md).  All analysis
    goes through {!Api.handle_json} — the same dispatcher the [batch]
    subcommand uses — so the daemon answers bit-for-bit what the CLI
    answers.

    Concurrency model:

    - {b domain 0} owns the accept loop ([Unix.select]), per-connection
      read buffers and the control requests ([stats], [ping],
      [shutdown]) — those are answered inline, so health checks stay
      responsive while every worker is busy;
    - {b analysis requests} go through a bounded admission queue into a
      pool of worker domains.  A full queue (or a breached
      [--max-memory] watermark) answers immediately with an
      [eventorder.error/1] of code [overload] instead of hanging the
      client; a request that out-waits the server's deadline cap in the
      queue is answered with code [timeout] without ever running.
    - {b shared hot state}: worker sessions share the process-wide
      result LRU, and concurrent requests for the same program are
      single-flighted on its canonical hash — the first client pays the
      enumeration, everyone else is served from the cache it filled.

    Graceful shutdown (SIGTERM, SIGINT, or a [shutdown] request): stop
    accepting, drain the queue, answer every in-flight request, exit 0. *)

type endpoint =
  | Unix_socket of string  (** path; created at start, removed at exit *)
  | Tcp of string * int  (** bind host, port *)

type config = {
  endpoint : endpoint;
  workers : int;  (** worker domains answering analysis requests *)
  max_queue : int;
      (** analysis requests allowed to wait; [0] rejects every analysis
          request with [overload] (deterministic overload testing) *)
  max_memory_mb : int option;
      (** refuse new analysis requests while the live heap exceeds
          this watermark *)
  api : Api.config;  (** per-request defaults and admission guards *)
  log : bool;  (** startup/shutdown/connection notes on stderr *)
}

val run : config -> unit
(** Binds, serves, blocks until shutdown.  Raises [Unix.Unix_error] when
    the endpoint cannot be bound. *)

(** {2 Request framing} *)

type framer
(** One connection's line in progress. *)

val framer : ?max_line:int -> unit -> framer
(** An empty framer refusing lines longer than [max_line] bytes (default
    32 MiB, the daemon's cap). *)

val feed : framer -> Bytes.t -> int -> int -> (string -> unit) -> bool
(** [feed f bytes off len emit] appends the [len] bytes at [off] and
    calls [emit] on every line they complete, in order, without its
    ['\n']; the tail stays pending for the next call.  Only the new bytes
    are scanned, so a long line costs linear time however it is split.
    [false] as soon as a line, complete or pending, exceeds [max_line]
    bytes (nothing past it is emitted; the connection is to be
    refused). *)
