type endpoint = Unix_socket of string | Tcp of string * int

type config = {
  endpoint : endpoint;
  workers : int;
  max_queue : int;
  max_memory_mb : int option;
  api : Api.config;
  log : bool;
}

(* A request line this long is an attack or a bug, not an analysis. *)
let max_line_bytes = 32 * 1024 * 1024

(* Newline framing in linear time: the bytes of the line in progress
   accumulate in one buffer, and each read is scanned once, for its own
   newlines only. *)
type framer = { line : Buffer.t; max_line : int }

let framer ?(max_line = max_line_bytes) () =
  { line = Buffer.create 256; max_line }

let feed f bytes off len emit =
  let stop = off + len in
  let rec scan start i =
    if i = stop then begin
      Buffer.add_subbytes f.line bytes start (stop - start);
      Buffer.length f.line <= f.max_line
    end
    else if Bytes.unsafe_get bytes i <> '\n' then scan start (i + 1)
    else begin
      Buffer.add_subbytes f.line bytes start (i - start);
      Buffer.length f.line <= f.max_line
      &&
      let line = Buffer.contents f.line in
      (* A long line gives its storage back. *)
      if Buffer.length f.line > 65536 then Buffer.reset f.line
      else Buffer.clear f.line;
      emit line;
      scan (i + 1) (i + 1)
    end
  in
  scan off off

(* One connected client.  Reads happen only on domain 0 (the select
   loop); writes happen from domain 0 (control responses, admission
   rejections) and from any worker (analysis responses), serialized by
   [wm] so two responses never interleave on the wire. *)
type conn = {
  fd : Unix.file_descr;
  wm : Mutex.t;
  pending : framer;  (** bytes read but not yet newline-framed *)
  mutable broken : bool;  (** write failed; stop responding, close soon *)
}

(* An analysis request, parsed once on domain 0. *)
type job = { request : Jsonout.t; peer : conn; enqueued : float }

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let send conn doc =
  Mutex.lock conn.wm;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wm)
    (fun () ->
      if not conn.broken then
        try write_all conn.fd (Jsonout.to_line doc)
        with Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
          conn.broken <- true)

let heap_bytes () =
  let s = Gc.quick_stat () in
  (s.Gc.heap_words * Sys.word_size) / 8

let counters_json c =
  Jsonout.Obj
    (List.map
       (fun k -> (Counters.key_name k, Jsonout.Int (Counters.get c k)))
       Counters.all_keys)

let run cfg =
  (* A worker writing to a client that vanished must get EPIPE as an
     error code, not a process-killing signal. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd =
    match cfg.endpoint with
    | Unix_socket path ->
        if Sys.file_exists path then Unix.unlink path;
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        fd
    | Tcp (host, port) ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        let addr =
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found -> Unix.inet_addr_of_string host
        in
        Unix.bind fd (Unix.ADDR_INET (addr, port));
        fd
  in
  Unix.listen listen_fd 64;
  let started = Unix.gettimeofday () in
  let log fmt =
    if cfg.log then Format.eprintf ("serve: " ^^ fmt ^^ "@.")
    else Format.ifprintf Format.err_formatter fmt
  in
  (match cfg.endpoint with
  | Unix_socket path -> log "listening on %s (%d workers)" path cfg.workers
  | Tcp (host, port) ->
      log "listening on %s:%d (%d workers)" host port cfg.workers);

  let stopping = Atomic.make false in
  let request_stop () = Atomic.set stopping true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> request_stop ()));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> request_stop ()));

  (* Admission queue: domain 0 pushes, workers pop.  Bounded by
     [max_queue]; the bound is checked by the pusher so rejection is
     immediate and the queue itself never grows past the cap. *)
  let qm = Mutex.create () in
  let qc = Condition.create () in
  let queue : job Queue.t = Queue.create () in
  let served = Atomic.make 0 in
  let overloads = Atomic.make 0 in

  (* Global counters: every per-request telemetry the workers produce is
     folded in here, so a [stats] request sees the server's lifetime
     engine activity. *)
  let stats_m = Mutex.create () in
  let global_counters = Counters.create () in
  let note_telemetry = function
    | None -> ()
    | Some tel ->
        Mutex.lock stats_m;
        Counters.merge_into ~dst:global_counters (Telemetry.counters tel);
        Mutex.unlock stats_m
  in

  (* Single-flight: concurrent requests for the same program hash queue
     behind one mutex, so a cold program is enumerated exactly once and
     the losers are served from the LRU the winner filled. *)
  let flights : (string, Mutex.t) Hashtbl.t = Hashtbl.create 16 in
  let flights_m = Mutex.create () in
  let serialize key f =
    let m =
      Mutex.lock flights_m;
      let m =
        match Hashtbl.find_opt flights key with
        | Some m -> m
        | None ->
            let m = Mutex.create () in
            Hashtbl.add flights key m;
            m
      in
      Mutex.unlock flights_m;
      m
    in
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f
  in

  let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
  let extra_stats () =
    let queue_depth =
      Mutex.lock qm;
      let d = Queue.length queue in
      Mutex.unlock qm;
      d
    in
    let counters =
      Mutex.lock stats_m;
      let j = counters_json global_counters in
      Mutex.unlock stats_m;
      j
    in
    [
      ( "uptime_ms",
        Jsonout.Int
          (int_of_float ((Unix.gettimeofday () -. started) *. 1000.)) );
      ("workers", Jsonout.Int cfg.workers);
      ("connections", Jsonout.Int (Hashtbl.length conns));
      ("queue_depth", Jsonout.Int queue_depth);
      ("max_queue", Jsonout.Int cfg.max_queue);
      ("requests_served", Jsonout.Int (Atomic.get served));
      ("overload_rejections", Jsonout.Int (Atomic.get overloads));
      ("counters", counters);
    ]
  in

  let worker () =
    let rec loop () =
      let job =
        Mutex.lock qm;
        let rec take () =
          if not (Queue.is_empty queue) then Some (Queue.pop queue)
          else if Atomic.get stopping then None
          else begin
            Condition.wait qc qm;
            take ()
          end
        in
        let j = take () in
        Mutex.unlock qm;
        j
      in
      match job with
      | None -> ()
      | Some { request; peer; enqueued } ->
          let response =
            (* A request that out-waited the server's own deadline cap in
               the queue would only burn a worker to report "timeout";
               answer from here instead. *)
            let overdue =
              match cfg.api.Api.timeout_ms with
              | Some cap ->
                  (Unix.gettimeofday () -. enqueued) *. 1000. > float_of_int cap
              | None -> false
            in
            if overdue then
              Api.error_doc ?id:(Api.request_id request) ~code:Api.Timeout
                "request deadline expired in the admission queue"
            else begin
              let handled = Api.handle_json ~serialize cfg.api (Ok request) in
              note_telemetry handled.Api.telemetry;
              handled.Api.response
            end
          in
          send peer response;
          Atomic.incr served;
          loop ()
    in
    loop ()
  in
  let workers = Array.init cfg.workers (fun _ -> Domain.spawn worker) in

  let reject peer ~code ~id msg =
    Atomic.incr overloads;
    send peer (Api.error_doc ?id ~code msg)
  in
  let admit peer request =
    let id () = Api.request_id request in
    let queue_full =
      Mutex.lock qm;
      let full = Queue.length queue >= cfg.max_queue in
      Mutex.unlock qm;
      full
    in
    let over_memory =
      match cfg.max_memory_mb with
      | Some mb -> heap_bytes () > mb * 1024 * 1024
      | None -> false
    in
    if queue_full then
      reject peer ~code:Api.Overload ~id:(id ())
        (Printf.sprintf
           "server is overloaded: admission queue is full (--max-queue %d)"
           cfg.max_queue)
    else if over_memory then
      reject peer ~code:Api.Overload ~id:(id ())
        "server is overloaded: memory watermark exceeded (--max-memory)"
    else begin
      Mutex.lock qm;
      Queue.push { request; peer; enqueued = Unix.gettimeofday () } queue;
      Condition.signal qc;
      Mutex.unlock qm
    end
  in

  let handle_line peer line =
    let parsed = Jsonin.parse line in
    match parsed with
    | Ok request when Api.request_op request = Some Api.Batch ->
        admit peer request
    | Ok _ | Error _ ->
        (* Control requests (and anything too malformed to classify) are
           answered inline so they stay responsive while every worker
           and queue slot is busy. *)
        let handled =
          Api.handle_json ~allow_shutdown:true ~extra_stats cfg.api parsed
        in
        send peer handled.Api.response;
        Atomic.incr served;
        if handled.Api.shutdown then begin
          log "shutdown requested by a client; draining";
          request_stop ()
        end
  in

  let next_id = ref 0 in
  let close_conn id conn =
    Hashtbl.remove conns id;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  in
  let buf = Bytes.create 65536 in
  let service_conn id conn =
    match Unix.read conn.fd buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) ->
        close_conn id conn
    | 0 -> close_conn id conn
    | n ->
        (* Frame on newlines; the tail stays pending. *)
        let framed =
          feed conn.pending buf 0 n (fun line ->
              let line = String.trim line in
              if line <> "" then handle_line conn line)
        in
        if not framed then begin
          send conn
            (Api.error_doc ~code:Api.Parse
               (Printf.sprintf "request line exceeds %d bytes" max_line_bytes));
          close_conn id conn
        end
  in

  (* Accept loop: one select over the listener and every connection.
     Signals interrupt the select (EINTR) and the timeout bounds the
     reaction time to a stop requested from a worker-written state. *)
  let rec loop () =
    if not (Atomic.get stopping) then begin
      let fds =
        listen_fd :: Hashtbl.fold (fun _ c acc -> c.fd :: acc) conns []
      in
      match Unix.select fds [] [] 0.2 with
      | exception Unix.Unix_error (EINTR, _, _) -> loop ()
      | ready, _, _ ->
          List.iter
            (fun fd ->
              if fd = listen_fd then begin
                match Unix.accept listen_fd with
                | exception Unix.Unix_error (EINTR, _, _) -> ()
                | client, _ ->
                    let id = !next_id in
                    incr next_id;
                    Hashtbl.replace conns id
                      {
                        fd = client;
                        wm = Mutex.create ();
                        pending = framer ();
                        broken = false;
                      }
              end
              else
                Hashtbl.iter
                  (fun id c -> if c.fd = fd then service_conn id c)
                  (Hashtbl.copy conns))
            ready;
          loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (* Drain: wake every worker, let them answer what is queued, then
         tear the sockets down. *)
      Mutex.lock qm;
      Condition.broadcast qc;
      Mutex.unlock qm;
      Array.iter Domain.join workers;
      Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (match cfg.endpoint with
      | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | Tcp _ -> ());
      log "stopped after %d requests" (Atomic.get served))
    loop
