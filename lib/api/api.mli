(** The transport-agnostic request API every front end routes through.

    One dispatcher, two transports: the [batch] subcommand feeds it
    cmdliner arguments, the analysis server ({!Server}) feeds it
    newline-delimited [eventorder.request/1] documents — both end up in
    the same query parser, the same {!Session}-backed answering code and
    the same JSON rendering, so the two surfaces cannot drift apart.

    The module is organised bottom-up:

    - {b errors}: every user-facing failure is an {!Error} carrying a
      machine-readable {!error_code}; transports render it as an
      [eventorder.error/1] document (the CLI also maps it to exit 2).
    - {b queries}: the textual query language ([relations], [reduced],
      [races], [first], [schedules], [REL:A:B]) with the label-or-id
      event pair resolution that used to live in the CLI.
    - {b answering}: {!answers} runs a query list against a shared
      {!Session.t}; each {!result} carries its own [timed_out] flag, so
      a response can say per entry whether the deadline truncated it.
    - {b requests}: the wire layer — parse one [eventorder.request/1]
      line, run it under a server {!config}, produce one response
      document.  {!handle_line} never raises; malformed input becomes an
      [eventorder.error/1] response. *)

(** {2 Errors} *)

type error_code =
  | Parse  (** malformed JSON, program syntax error, malformed trace *)
  | Usage  (** a well-formed request asking something invalid *)
  | Timeout  (** the deadline expired before the analysis could start *)
  | Overload  (** the server's admission queue is full *)

val code_string : error_code -> string
(** ["parse"], ["usage"], ["timeout"], ["overload"] — the [code] field
    of [eventorder.error/1]. *)

exception Error of error_code * string

val errorf : error_code -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [errorf code fmt ...] raises {!Error} with the formatted message. *)

val error_doc : ?id:Jsonout.t -> code:error_code -> string -> Jsonout.t
(** The [eventorder.error/1] document: [{schema; id?; code; error}].
    [?id] echoes the failing request's id so a pipelining client can
    match the error to its request. *)

(** {2 Queries} *)

val relation_key : Relations.relation -> string
(** Lower-case JSON key of a relation ("mhb", "chb", ...). *)

val relation_of_string : string -> Relations.relation option

val lookup_event : Trace.t -> Execution.t -> string -> int option
(** An event names itself by label or by numeric id. *)

val resolve_pair :
  Trace.t -> Execution.t -> query:string -> string -> string * string * int * int
(** [resolve_pair trace x ~query rest] splits the ["A:B"] remainder of a
    per-pair query into two event names.  Labels themselves contain
    colons (["x := 1"]), so every split is tried and the unique one
    where both sides name events wins; zero or several matches raise
    {!Error} [Usage].  Returns [(a_name, b_name, a_id, b_id)]. *)

type query =
  | Relations  (** the six matrices by full enumeration *)
  | Reduced  (** the same by the class-level engine *)
  | Races  (** feasible races *)
  | First  (** first races *)
  | Schedules  (** the feasible-schedule count *)
  | Pair of Relations.relation * string
      (** [REL:A:B]; the ["A:B"] remainder is kept raw and resolved
          against the trace when the query is answered *)

val query_of_string : string -> query
(** Raises {!Error} [Usage] on unknown queries or relations. *)

(** {2 Answering} *)

type answer =
  | Summary of Relations.t
  | Race_list of Race.race list
  | Count of int
  | Holds of {
      relation : Relations.relation;
      a_label : string;
      b_label : string;
      holds : bool;
    }

type result = {
  query : string;  (** the query text, echoed *)
  answer : answer;
  timed_out : bool;
      (** the deadline truncated this entry: its value is the sound
          approximation, not the exact answer.  A plain [--limit]
          truncation does {e not} set this (the [truncated] field of a
          summary reports it); results with [timed_out] are never
          cached. *)
}

val answers : Session.t -> Trace.t -> Execution.t -> string list -> result list
(** Answers the queries in order against one shared session (one
    enumeration pass, one reachability memo, one cache entry set).
    Raises {!Error} [Usage] on an unparsable query, and {!Error} [Parse]
    on a [first] query whose recorded schedule does not replay. *)

val json_of_rel : Rel.t -> Jsonout.t
(** A relation as a JSON list of [[a, b]] pairs. *)

val json_of_race : Execution.t -> Race.race -> Jsonout.t

val result_json : Execution.t -> result -> Jsonout.t
(** One entry of a [batch]/[response] [results] array.  Every entry
    carries [query] and [status] (["ok"] or ["timeout"], from
    [timed_out]) plus the answer-specific fields. *)

val pp_result : Execution.t -> Format.formatter -> result -> unit
(** Text rendering, ["-- query --"] header included — what [batch
    --format text] prints per query. *)

(** {2 Requests — the wire layer} *)

type op =
  | Batch  (** run queries against a program or trace *)
  | Stats  (** server counters and health *)
  | Ping  (** liveness probe *)
  | Shutdown  (** ask the server to drain and exit *)

type request = {
  id : Jsonout.t option;  (** echoed verbatim in the response *)
  op : op;
  program : string option;  (** program source text *)
  trace_text : string option;  (** recorded [eotrace] text *)
  policy : Sched.policy;  (** scheduling policy for [program] runs *)
  queries : string list;
  engine : Engine.t option;
  model : Memmodel.t option;  (** memory model; see {!config.model} *)
  limit : int option;
  timeout_ms : int option;
  jobs : int option;
  collect_stats : bool;  (** include telemetry in the response *)
}

val request_of_json : Jsonout.t -> request
(** Validates one [eventorder.request/1] document.  Raises {!Error}
    ([Usage] for structural problems — the schema line itself must
    match). *)

val request_op_of_line : string -> op option
(** Cheap classification for a server's accept loop: [Some op] when the
    line parses far enough to name its op (absent defaults to [Batch]),
    [None] when it cannot — route [Some Batch] to the worker queue and
    everything else inline, so control requests stay responsive while
    the queue is saturated.  Never raises. *)

val request_id_of_line : string -> Jsonout.t option
(** Best-effort id recovery, for error responses produced without
    running {!handle_line} (queue rejections).  Never raises. *)

type config = {
  engine : Engine.t option;
      (** server-side default; a request's [engine] wins, absence of
          both falls back to [EO_ENGINE]/packed *)
  model : Memmodel.t option;
      (** server-side default memory model; same resolution as
          [engine] (request > flag > [EO_MODEL]/sc).  The resolved
          engine and model are set domain-locally per request, read
          once by the request's session when it is made, and baked
          into its cache key, so cached answers never cross models *)
  limit : int option;
  jobs : int;  (** worker-domain cap; requests can lower it, not raise *)
  max_events : int;  (** admission guard on the exponential engines *)
  timeout_ms : int option;
      (** server-side deadline cap: a request deadline is clamped to
          this, and requests without one inherit it *)
  cache : Session.cache;
}

val default_config : unit -> config
(** Engine/limit unset, jobs from [EO_JOBS], 40-event guard, timeout
    from [EO_TIMEOUT_MS], the default cache. *)

type handled = {
  response : Jsonout.t;  (** exactly one document to write back *)
  shutdown : bool;  (** the client asked the server to stop *)
  telemetry : Telemetry.t option;
      (** per-request telemetry when the request asked for stats —
          the server folds it into its global counters *)
}

val handle_line :
  ?allow_shutdown:bool ->
  ?extra_stats:(unit -> (string * Jsonout.t) list) ->
  ?serialize:(string -> (unit -> Jsonout.t) -> Jsonout.t) ->
  config ->
  string ->
  handled
(** [handle_line config line] parses and runs one request line.  Never
    raises: every failure becomes an [eventorder.error/1] response
    (with the request id when one was recovered).

    [?allow_shutdown] (default [false]) gates the [shutdown] op —
    refusing it is a [Usage] error, so an unprivileged transport can
    simply not opt in.  [?extra_stats] contributes transport-level
    fields (uptime, served counts, queue depth) to the
    [eventorder.stats/1] response.  [?serialize], keyed by the program's
    canonical hash, lets the server single-flight concurrent requests
    for the same program: the expensive answering runs inside the
    callback, so two clients racing on a cold program enumerate it once
    and the loser is served from the cache the winner filled. *)
