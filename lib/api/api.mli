(** The one answer path: every front end resolves its settings here,
    and every [eventorder.*/1] document is answered and rendered here.

    Each CLI subcommand hands its flags to {!config_of_flags} and
    {!resolve}.  The ones with a document ([analyze], [races],
    [schedules], [batch], [reduce], [consistent]) then print the {!doc}
    one of the one-shot functions returns; the [batch] subcommand and
    the analysis server ({!Server}, which feeds {!handle_line}
    newline-delimited [eventorder.request/1] documents) share the same
    query parser, the same {!Session}-backed answering code and the same
    renderers, so no two surfaces can drift apart.  The text-only
    reports ([report], [order], [taskgraph], ...) call the library
    directly under the settings resolved here.

    The module is organised bottom-up:

    - {b errors}: every user-facing failure is an {!Error} carrying a
      machine-readable {!error_code}; transports render it as an
      [eventorder.error/1] document (the CLI also maps it to exit 2).
    - {b settings}: one resolver turns request, flag and environment
      values into the engine, model, jobs, limit, budget and cache of a
      run, by request > flag > environment > default.
    - {b queries}: the textual query language ([relations], [reduced],
      [races], [first], [schedules], [REL:A:B]) with the label-or-id
      event pair resolution.
    - {b answering}: {!answers} runs a query list against a shared
      {!Session.t}; each {!result} carries its own [timed_out] flag, so
      a response can say per entry whether the deadline truncated it.
    - {b documents}: one renderer per [eventorder.*/1] schema and its
      text form, all sharing one envelope ([schema], [status], [events],
      [engine], [jobs], [stats]).
    - {b requests}: the wire layer — parse one [eventorder.request/1]
      line, run it under a server {!config}, produce one response
      document.  {!handle_line} never raises. *)

(** {2 Errors} *)

type error_code =
  | Parse  (** malformed JSON, program syntax error, malformed trace *)
  | Usage  (** a well-formed request asking something invalid *)
  | Timeout  (** the deadline expired before the analysis could start *)
  | Overload  (** the server's admission queue is full *)
  | Internal  (** a defect: an exception escaped the analysis *)

val code_string : error_code -> string
(** ["parse"], ["usage"], ["timeout"], ["overload"], ["internal"] — the
    [code] field of [eventorder.error/1]. *)

exception Error of error_code * string

val errorf : error_code -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [errorf code fmt ...] raises {!Error} with the formatted message. *)

val error_schema : string
(** ["eventorder.error/1"]. *)

val request_schema : string
(** ["eventorder.request/1"]. *)

val error_doc : ?id:Jsonout.t -> code:error_code -> string -> Jsonout.t
(** The [eventorder.error/1] document: [{schema; id?; code; error}].
    [?id] echoes the failing request's id so a pipelining client can
    match the error to its request. *)

(** {2 Settings} *)

type config = {
  engine : Engine.t option;
      (** flag-layer engine; [None] defers to the library default
          ({!Engine.default_of_env}) *)
  model : Memmodel.t option;  (** flag-layer memory model, likewise *)
  limit : int option;
  jobs : int;  (** worker-domain cap; requests can lower it, not raise *)
  max_events : int;  (** admission guard on the exponential engines *)
  timeout_ms : int option;
      (** deadline cap: a request deadline is clamped to this, and
          requests without one inherit it *)
  cache : Session.cache;
}
(** The flag layer of a run: a server's configuration, or a CLI
    subcommand's flags. *)

val default_config : unit -> config
(** Engine/model/limit unset, jobs from [EO_JOBS], 40-event guard,
    timeout from [EO_TIMEOUT_MS], the default cache. *)

val config_of_flags :
  ?engine:string -> ?model:string -> ?jobs:int -> ?limit:int ->
  ?timeout_ms:int -> ?cache:string -> ?max_events:int -> unit -> config
(** Validates each flag once — an engine or model outside
    {!Config.engine_names}/{!Config.model_names}, or a [--jobs],
    [--limit] or [--timeout] below 1, raises {!Error} [Usage] naming
    the flag — and falls back to the environment for absent ones:
    [EO_ENGINE] and [EO_MODEL] strictly (a malformed value raises
    {!Error} [Usage]), [EO_JOBS], [EO_TIMEOUT_MS] and [EO_CACHE_DIR] as
    {!Config} reads them.  A relative [cache] directory is anchored at
    the current directory. *)

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
  model : Memmodel.t option;
  limit : int option;
  timeout_ms : int option;
  jobs : int option;
  collect_stats : bool;  (** include telemetry in the response *)
}

type settings = {
  engine : Engine.t;
  model : Memmodel.t;
  jobs : int;
  limit : int option;
  budget : Budget.t;  (** started when the settings were resolved *)
  cache : Session.cache;
}
(** Everything a run is decided under, resolved once. *)

val resolve : ?request:request -> config -> settings
(** Request > [config] > library default.  The request's deadline is
    clamped to [config.timeout_ms], its [jobs] to [config.jobs]; a
    request [timeout_ms], [jobs] or [limit] below 1 raises {!Error}
    [Usage].  The only caller of [Engine.set]/[Memmodel.set] in the
    library: the resolved engine and model are selected domain-locally
    for the sessions and skeletons made after this call on this domain,
    which read them once, so concurrent requests on other domains never
    see each other's choice. *)

(** {2 Inputs} *)

val check_size : who:string -> max_events:int -> int -> unit
(** Refuses ({!Error} [Usage]) a trace of more events than [max_events];
    [who] names whose limit it is (["the configured"], ["the
    server's"]). *)

val check_recorded : Skeleton.t -> Trace.t -> unit
(** Raises {!Error} [Parse] when the trace's recorded schedule does not
    replay. *)

val policy_of_string : string -> Sched.policy
(** ["rr"], ["priority"] or ["random:SEED"]; {!Error} [Usage] otherwise. *)

val policy_to_string : Sched.policy -> string

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
  | Relations
      (** the six matrices ({!Relations.of_session}: by the class-level
          engine, or by full enumeration under a limit or the naive
          engine) *)
  | Reduced  (** the same by the class-level engine, whatever the limit *)
  | Races  (** feasible races *)
  | First  (** first races *)
  | Schedules  (** the feasible-schedule count *)
  | Pair of Relations.relation * string
      (** [REL:A:B]; the ["A:B"] remainder is kept raw and resolved
          against the trace when the query is answered *)

val query_of_string : string -> query
(** Raises {!Error} [Usage] on unknown queries or relations. *)

val stream_query : n:int -> string -> Triage.stream_relation * int * int
(** A streaming [--query]: [mhb] or [chb] between numeric event ids in
    [\[0, n)]; {!Error} [Usage] otherwise. *)

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
    summary, one reachability memo, one cache entry set).
    Raises {!Error} [Usage] on an unparsable query, and {!Error} [Parse]
    on a [first] query whose recorded schedule does not replay. *)

(** {2 Documents} *)

val result_json : Execution.t -> result -> Jsonout.t
(** One entry of a [batch]/[response] [results] array.  Every entry
    carries [query] and [status] (["ok"] or ["timeout"], from
    [timed_out]) plus the answer-specific fields. *)

type doc = {
  json : unit -> Jsonout.t;  (** the [eventorder.*/1] document *)
  text : Format.formatter -> unit;  (** its text form *)
  exit_code : int;
      (** 0 success, 1 the analysis check failed ([consistent]: the
          assignment is inconsistent), 3 the deadline expired (the
          document is partial and its [status] reads ["timeout"]) *)
}
(** One answered one-shot command, ready to print.  With [~stats:true]
    both forms end with the run's telemetry report. *)

val analyze :
  settings -> stats:bool -> reduced:bool -> all:bool -> Trace.t -> doc
(** [eventorder.analyze/1]: the six Table 1 matrices (the [relations]
    answer, or under [reduced] the class-level engine, which ignores the
    limit), the observed width, and with [all] the feasible and first
    races of the same session. *)

val schedules : settings -> stats:bool -> Trace.t -> doc
(** [eventorder.schedules/1]: feasible-schedule and reachable-state
    counts and deadlock reachability, by the counting DP. *)

val races : settings -> stats:bool -> witness:bool -> Trace.t -> doc
(** [eventorder.races/1]: candidate, apparent, feasible and first races,
    with [witness] the two interleavings of each feasible race. *)

val races_stream :
  settings -> stats:bool -> queries:(Triage.stream_relation * int * int) list ->
  Bigtrace.t -> doc
(** [eventorder.races_stream/1]: tier-1 triage of a columnar trace
    ({!Triage.races_big}), with per-pair verdicts for [queries]. *)

val batch : settings -> stats:bool -> Trace.t -> string list -> doc
(** [eventorder.batch/1]: {!answers} over one session. *)

val reduce :
  settings -> stats:bool -> style:[ `Sem | `Event ] -> decide:bool -> Cnf.t ->
  doc
(** [eventorder.reduce/1]: the Theorem 1/2 (semaphore) or 3/4 (event)
    reduction program of a formula, with [decide] the theorem checks. *)

val consistent : settings -> stats:bool -> rf:string list -> Trace.t -> doc
(** [eventorder.consistent/1]: is the observed reads-from assignment,
    with each [READ=WRITE] override of [rf] applied, consistent under
    the settings' model?  Exit code 1 when it is not. *)

(** {2 Requests — the wire layer} *)

val request_of_json : Jsonout.t -> request
(** Validates one [eventorder.request/1] document.  Raises {!Error}
    ([Usage] for structural problems — the schema line itself must
    match). *)

val request_op : Jsonout.t -> op option
(** Cheap classification of a parsed request line for a server's accept
    loop: [Some op] when the document names its op (absent defaults to
    [Batch]), [None] when it cannot — route [Some Batch] to the worker
    queue and everything else inline, so control requests stay
    responsive while the queue is saturated.  Never raises. *)

val request_id : Jsonout.t -> Jsonout.t option
(** Best-effort id recovery from a parsed request, for error responses
    produced without running it (queue rejections).  Never raises. *)

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
(** [handle_line config line] parses and runs one request line, its
    settings resolved by {!resolve} against [config].  Never raises:
    every failure becomes an [eventorder.error/1] response (with the
    request id when one was recovered) — input errors with their own
    code, and any other exception, a defect, with code [internal], so
    the domain that ran the request lives on.

    [?allow_shutdown] (default [false]) gates the [shutdown] op —
    refusing it is a [Usage] error, so an unprivileged transport can
    simply not opt in.  [?extra_stats] contributes transport-level
    fields (uptime, served counts, queue depth) to the
    [eventorder.stats/1] response.  [?serialize], keyed by the program's
    canonical hash, lets the server single-flight concurrent requests
    for the same program: the expensive answering runs inside the
    callback, so two clients racing on a cold program compute it once
    and the loser is served from the cache the winner filled. *)

val handle_json :
  ?allow_shutdown:bool ->
  ?extra_stats:(unit -> (string * Jsonout.t) list) ->
  ?serialize:(string -> (unit -> Jsonout.t) -> Jsonout.t) ->
  config ->
  (Jsonout.t, string) Stdlib.result ->
  handled
(** {!handle_line} on a line already parsed by {!Jsonin.parse} ([Error]
    answers the parse error), so a server that classified the line with
    {!request_op} does not parse it again.  [handle_line config line] is
    [handle_json config (Jsonin.parse line)]. *)
