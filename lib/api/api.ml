(* ------------------------------------------------------------------ *)
(* Errors                                                              *)
(* ------------------------------------------------------------------ *)

type error_code = Parse | Usage | Timeout | Overload

let code_string = function
  | Parse -> "parse"
  | Usage -> "usage"
  | Timeout -> "timeout"
  | Overload -> "overload"

exception Error of error_code * string

let errorf code fmt =
  Format.kasprintf (fun msg -> raise (Error (code, msg))) fmt

let error_doc ?id ~code msg =
  Jsonout.Obj
    ([ ("schema", Jsonout.Str "eventorder.error/1") ]
    @ (match id with Some id -> [ ("id", id) ] | None -> [])
    @ [
        ("code", Jsonout.Str (code_string code)); ("error", Jsonout.Str msg);
      ])

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let relation_key = function
  | Relations.MHB -> "mhb"
  | Relations.CHB -> "chb"
  | Relations.MCW -> "mcw"
  | Relations.CCW -> "ccw"
  | Relations.MOW -> "mow"
  | Relations.COW -> "cow"

let relation_of_string = function
  | "mhb" -> Some Relations.MHB
  | "chb" -> Some Relations.CHB
  | "mcw" -> Some Relations.MCW
  | "ccw" -> Some Relations.CCW
  | "mow" -> Some Relations.MOW
  | "cow" -> Some Relations.COW
  | _ -> None

(* An event names itself by label or by numeric id. *)
let lookup_event trace x name =
  match Trace.find_event_opt trace name with
  | Some e -> Some e.Event.id
  | None -> (
      match int_of_string_opt name with
      | Some id when id >= 0 && id < Execution.n_events x -> Some id
      | _ -> None)

(* REL:A:B — but labels themselves contain colons ("x := 1"), so the
   two separators cannot be found lexically.  Instead every split of
   the remainder is tried, and the one where both sides name events
   wins; anything else (zero or several splits working) is an error. *)
let resolve_pair trace x ~query rest =
  let n = String.length rest in
  let candidates = ref [] in
  for i = 0 to n - 1 do
    if rest.[i] = ':' then begin
      let a = String.sub rest 0 i in
      let b = String.sub rest (i + 1) (n - i - 1) in
      match (lookup_event trace x a, lookup_event trace x b) with
      | Some ea, Some eb -> candidates := (a, b, ea, eb) :: !candidates
      | _ -> ()
    end
  done;
  match !candidates with
  | [ c ] -> c
  | [] ->
      errorf Usage
        "query %S names no event pair of the trace (labels or numeric event \
         ids, REL:A:B)"
        query
  | _ ->
      errorf Usage
        "query %S is ambiguous: several label splits match; use numeric \
         event ids"
        query

type query =
  | Relations
  | Reduced
  | Races
  | First
  | Schedules
  | Pair of Relations.relation * string

let query_of_string q =
  match q with
  | "relations" -> Relations
  | "reduced" -> Reduced
  | "races" -> Races
  | "first" -> First
  | "schedules" -> Schedules
  | _ -> (
      match String.index_opt q ':' with
      | Some i -> (
          let rel = String.sub q 0 i in
          let rest = String.sub q (i + 1) (String.length q - i - 1) in
          match relation_of_string (String.lowercase_ascii rel) with
          | Some relation -> Pair (relation, rest)
          | None ->
              errorf Usage
                "unknown relation %S in query %S (expected mhb, chb, mcw, \
                 ccw, mow or cow)"
                rel q)
      | None ->
          errorf Usage
            "unknown query %S (expected relations, reduced, races, first, \
             schedules, or REL:A:B)"
            q)

(* ------------------------------------------------------------------ *)
(* Answering                                                           *)
(* ------------------------------------------------------------------ *)

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

type result = { query : string; answer : answer; timed_out : bool }

let answers session trace x queries =
  let decide = lazy (Decide.of_session session) in
  (* An entry is "timeout" only when the deadline actually cut it short:
     [Bound_hit] can also come from --limit, which the summary's own
     [truncated] field reports without flipping the status. *)
  let deadline = Session.budget session in
  let entry query outcome wrap =
    match outcome with
    | Budget.Exact v -> { query; answer = wrap v; timed_out = false }
    | Budget.Bound_hit v ->
        { query; answer = wrap v; timed_out = Budget.exhausted deadline }
  in
  List.map
    (fun q ->
      match query_of_string q with
      | Relations ->
          entry q (Relations.of_session_outcome session) (fun s -> Summary s)
      | Reduced ->
          entry q
            (Relations.of_session_reduced_outcome session)
            (fun s -> Summary s)
      | Races ->
          entry q
            (Race.feasible_races_session_outcome session)
            (fun r -> Race_list r)
      | First -> (
          (* First races are ordered along the recorded schedule; one
             that does not replay is an input error. *)
          match Race.first_races_session_outcome session with
          | outcome -> entry q outcome (fun r -> Race_list r)
          | exception Replay.Not_replayable msg -> errorf Parse "%s" msg)
      | Schedules ->
          entry q (Session.schedule_count_outcome session) (fun c -> Count c)
      | Pair (relation, rest) ->
          let a_label, b_label, a, b = resolve_pair trace x ~query:q rest in
          entry q
            (Decide.holds_outcome (Lazy.force decide) relation a b)
            (fun holds -> Holds { relation; a_label; b_label; holds }))
    queries

let json_of_rel rel =
  Jsonout.List
    (List.map
       (fun (a, b) -> Jsonout.List [ Jsonout.Int a; Jsonout.Int b ])
       (Rel.to_pairs rel))

let json_of_race (x : Execution.t) (r : Race.race) =
  Jsonout.Obj
    [
      ("e1", Jsonout.Int r.Race.e1);
      ("e2", Jsonout.Int r.Race.e2);
      ( "labels",
        Jsonout.List
          [
            Jsonout.Str x.Execution.events.(r.Race.e1).Event.label;
            Jsonout.Str x.Execution.events.(r.Race.e2).Event.label;
          ] );
      ( "variables",
        Jsonout.List (List.map (fun v -> Jsonout.Int v) r.Race.variables) );
    ]

let result_json x { query; answer; timed_out } =
  let head =
    [
      ("query", Jsonout.Str query);
      ("status", Jsonout.Str (if timed_out then "timeout" else "ok"));
    ]
  in
  match answer with
  | Summary s ->
      Jsonout.Obj
        (head
        @ [
            ("feasible_schedules", Jsonout.Int s.Relations.feasible_count);
            ("truncated", Jsonout.Bool s.Relations.truncated);
            ("distinct_classes", Jsonout.Int s.Relations.distinct_classes);
            ( "relations",
              Jsonout.Obj
                (List.map
                   (fun rel ->
                     (relation_key rel, json_of_rel (Relations.to_rel s rel)))
                   Relations.all_relations) );
          ])
  | Race_list races ->
      Jsonout.Obj
        (head @ [ ("races", Jsonout.List (List.map (json_of_race x) races)) ])
  | Count count ->
      Jsonout.Obj
        (head
        @ [
            ("feasible_schedules", Jsonout.Int count);
            ("saturated", Jsonout.Bool (count >= Reach.count_saturation));
          ])
  | Holds { relation; a_label; b_label; holds } ->
      Jsonout.Obj
        (head
        @ [
            ("relation", Jsonout.Str (relation_key relation));
            ("before", Jsonout.Str a_label);
            ("after", Jsonout.Str b_label);
            ("holds", Jsonout.Bool holds);
          ])

let pp_result x ppf { query; answer; _ } =
  Format.fprintf ppf "-- %s --@." query;
  match answer with
  | Summary s ->
      Format.fprintf ppf "%a@." Relations.pp_summary (s, x.Execution.events)
  | Race_list races ->
      Format.fprintf ppf "races: %d@." (List.length races);
      List.iter (fun r -> Format.fprintf ppf "  %a@." (Race.pp_race x) r) races
  | Count count ->
      if count >= Reach.count_saturation then
        Format.fprintf ppf "feasible schedules: >= 10^18@."
      else Format.fprintf ppf "feasible schedules: %d@." count
  | Holds { relation; a_label; b_label; holds } ->
      Format.fprintf ppf "'%s' %s '%s': %b@." a_label
        (String.uppercase_ascii (relation_key relation))
        b_label holds

(* ------------------------------------------------------------------ *)
(* Requests — the wire layer                                           *)
(* ------------------------------------------------------------------ *)

type op = Batch | Stats | Ping | Shutdown

type request = {
  id : Jsonout.t option;
  op : op;
  program : string option;
  trace_text : string option;
  policy : Sched.policy;
  queries : string list;
  engine : Engine.t option;
  model : Memmodel.t option;
  limit : int option;
  timeout_ms : int option;
  jobs : int option;
  collect_stats : bool;
}

let request_schema = "eventorder.request/1"

let fields_of = function
  | Jsonout.Obj fields -> fields
  | _ -> errorf Usage "a request must be a JSON object"

(* The id is echoed verbatim so pipelining clients can correlate; only
   scalars are accepted (an object id would invite unbounded junk). *)
let id_of fields =
  match List.assoc_opt "id" fields with
  | None | Some Jsonout.Null -> None
  | Some (Jsonout.Int _ | Jsonout.Str _) as id -> id
  | Some _ -> errorf Usage "field \"id\" must be an integer or a string"

let string_field fields k =
  match List.assoc_opt k fields with
  | None | Some Jsonout.Null -> None
  | Some (Jsonout.Str s) -> Some s
  | Some _ -> errorf Usage "field %S must be a string" k

let int_field fields k =
  match List.assoc_opt k fields with
  | None | Some Jsonout.Null -> None
  | Some (Jsonout.Int i) -> Some i
  | Some _ -> errorf Usage "field %S must be an integer" k

let bool_field fields k =
  match List.assoc_opt k fields with
  | None | Some Jsonout.Null -> None
  | Some (Jsonout.Bool b) -> Some b
  | Some _ -> errorf Usage "field %S must be a boolean" k

let string_list_field fields k =
  match List.assoc_opt k fields with
  | None | Some Jsonout.Null -> None
  | Some (Jsonout.List items) ->
      Some
        (List.map
           (function
             | Jsonout.Str s -> s
             | _ -> errorf Usage "field %S must be a list of strings" k)
           items)
  | Some _ -> errorf Usage "field %S must be a list of strings" k

let op_of_string = function
  | "batch" -> Batch
  | "stats" -> Stats
  | "ping" -> Ping
  | "shutdown" -> Shutdown
  | s -> errorf Usage "unknown op %S (expected batch, stats, ping or shutdown)" s

let policy_of_string s =
  match s with
  | "rr" -> Sched.Round_robin
  | "priority" -> Sched.Priority
  | _ -> (
      match String.split_on_char ':' s with
      | [ "random"; seed ] -> (
          match int_of_string_opt seed with
          | Some seed -> Sched.Random seed
          | None -> errorf Usage "random policy seed must be an integer")
      | _ -> errorf Usage "unknown policy %S (expected rr, priority, or random:SEED)" s)

let request_of_json doc =
  let fields = fields_of doc in
  (match string_field fields "schema" with
  | Some s when s = request_schema -> ()
  | Some s -> errorf Usage "unknown request schema %S (expected %S)" s request_schema
  | None -> errorf Usage "request is missing its \"schema\" field (%S)" request_schema);
  let engine =
    match string_field fields "engine" with
    | None -> None
    | Some s -> (
        match Engine.of_string s with
        | Some e -> Some e
        | None ->
            errorf Usage "unknown engine %S (expected %s)" s
              (String.concat ", " Config.engine_names))
  in
  let model =
    match string_field fields "model" with
    | None -> None
    | Some s -> (
        match Memmodel.of_string s with
        | Some m -> Some m
        | None ->
            errorf Usage "unknown model %S (expected %s)" s
              (String.concat ", " Config.model_names))
  in
  {
    id = id_of fields;
    op =
      (match string_field fields "op" with
      | None -> Batch
      | Some s -> op_of_string s);
    program = string_field fields "program";
    trace_text = string_field fields "trace";
    policy =
      (match string_field fields "policy" with
      | None -> Sched.Round_robin
      | Some s -> policy_of_string s);
    queries = Option.value ~default:[] (string_list_field fields "queries");
    engine;
    model;
    limit = int_field fields "limit";
    timeout_ms = int_field fields "timeout_ms";
    jobs = int_field fields "jobs";
    collect_stats = Option.value ~default:false (bool_field fields "stats");
  }

let request_op_of_line line =
  match Jsonin.parse line with
  | Error _ -> None
  | Ok (Jsonout.Obj fields) -> (
      match List.assoc_opt "op" fields with
      | None -> Some Batch
      | Some (Jsonout.Str s) -> ( try Some (op_of_string s) with Error _ -> None)
      | Some _ -> None)
  | Ok _ -> None

let request_id_of_line line =
  match Jsonin.parse line with
  | Ok (Jsonout.Obj fields) -> ( try id_of fields with Error _ -> None)
  | Ok _ | Error _ -> None

(* ------------------------------------------------------------------ *)
(* Handling                                                            *)
(* ------------------------------------------------------------------ *)

type config = {
  engine : Engine.t option;
  model : Memmodel.t option;
  limit : int option;
  jobs : int;
  max_events : int;
  timeout_ms : int option;
  cache : Session.cache;
}

let default_config () =
  {
    engine = None;
    model = None;
    limit = None;
    jobs = Config.jobs ();
    max_events = 40;
    timeout_ms = Config.timeout_ms ();
    cache = Session.default_cache ();
  }

type handled = {
  response : Jsonout.t;
  shutdown : bool;
  telemetry : Telemetry.t option;
}

let response_schema = "eventorder.response/1"

let id_field = function Some id -> [ ("id", id) ] | None -> []

let plain ?id fields =
  Jsonout.Obj
    ([ ("schema", Jsonout.Str response_schema) ]
    @ id_field id
    @ [ ("status", Jsonout.Str "ok") ]
    @ fields)

let outcome_string = function
  | Trace.Completed -> "completed"
  | Trace.Deadlocked _ -> "deadlocked"
  | Trace.Fuel_exhausted -> "fuel_exhausted"

let run_batch ?serialize config (req : request) =
  (* Engine resolution is per request and never consults the handling
     domain's previous choice: request > server flag > environment
     default.  [Engine.set] is domain-local and the session below reads
     it once, when it is made, so concurrent requests cannot leak engines
     into each other and no worker domain consults the switch again. *)
  let engine =
    match (req.engine, config.engine) with
    | Some e, _ -> e
    | None, Some e -> e
    | None, None -> Engine.default_of_env ()
  in
  Engine.set engine;
  (* The model resolves the same way (request > server flag > environment
     default) and is likewise domain-local, read once by the session's
     skeleton; it is baked into the session cache key, so cached answers
     can never cross models. *)
  let model =
    match (req.model, config.model) with
    | Some m, _ -> m
    | None, Some m -> m
    | None, None -> Memmodel.default_of_env ()
  in
  Memmodel.set model;
  (* The server cap clamps the request deadline; a request without one
     inherits the cap, so --timeout on the server is a hard ceiling. *)
  let timeout_ms =
    match (req.timeout_ms, config.timeout_ms) with
    | Some r, Some c -> Some (min r c)
    | Some r, None -> Some r
    | None, c -> c
  in
  (match timeout_ms with
  | Some ms when ms < 1 ->
      errorf Usage "timeout_ms must be at least 1 millisecond (got %d)" ms
  | _ -> ());
  let budget =
    match timeout_ms with
    | Some ms -> Budget.create ~timeout_ms:ms ()
    | None -> Budget.unlimited
  in
  let jobs =
    match req.jobs with
    | Some j when j >= 1 -> min j config.jobs
    | Some j -> errorf Usage "jobs must be at least 1 (got %d)" j
    | None -> config.jobs
  in
  let trace =
    match (req.program, req.trace_text) with
    | Some _, Some _ ->
        errorf Usage "request carries both \"program\" and \"trace\"; send one"
    | None, None ->
        errorf Usage "request carries neither \"program\" nor \"trace\""
    | Some src, None -> (
        match Interp.run ~policy:req.policy (Parse.program src) with
        | trace -> trace
        | exception Parse.Syntax_error { line; message } ->
            errorf Parse "program line %d: syntax error: %s" line message)
    | None, Some text -> (
        try Trace_io.of_string text
        with Failure message -> errorf Parse "malformed trace: %s" message)
  in
  let n = Trace.n_events trace in
  if n > config.max_events then
    errorf Usage
      "trace has %d events; the exact engines are exponential and %d is past \
       the server's --max-events %d"
      n n config.max_events;
  if req.queries = [] then
    errorf Usage "batch request has an empty \"queries\" list";
  let x = Trace.to_execution trace in
  let limit = match req.limit with Some _ as l -> l | None -> config.limit in
  let stats = if req.collect_stats then Some (Telemetry.create ()) else None in
  let session =
    Session.of_execution ?limit ~jobs ?stats ~budget ~cache:config.cache x
  in
  Triage.attach session;
  let key = Program_key.hash (Session.key session) in
  let compute () =
    let results = answers session trace x req.queries in
    Jsonout.Obj
      ([ ("schema", Jsonout.Str response_schema) ]
      @ id_field req.id
      @ [
          ( "status",
            Jsonout.Str (if Budget.exhausted budget then "timeout" else "ok")
          );
          ("op", Jsonout.Str "batch");
          ("events", Jsonout.Int n);
          ("outcome", Jsonout.Str (outcome_string trace.Trace.outcome));
          ("program_key", Jsonout.Str key);
          ("engine", Jsonout.Str (Engine.to_string engine));
          ("model", Jsonout.Str (Memmodel.to_string model));
          ("jobs", Jsonout.Int jobs);
          ("results", Jsonout.List (List.map (result_json x) results));
        ]
      @ match stats with
        | Some tel -> [ ("stats", Telemetry.to_json tel) ]
        | None -> [])
  in
  let response =
    match serialize with Some f -> f key compute | None -> compute ()
  in
  { response; shutdown = false; telemetry = stats }

let handle_line ?(allow_shutdown = false) ?extra_stats ?serialize config line =
  let fail ?id code msg =
    { response = error_doc ?id ~code msg; shutdown = false; telemetry = None }
  in
  match Jsonin.parse line with
  | Error msg -> fail Parse (Printf.sprintf "malformed request: %s" msg)
  | Ok doc -> (
      (* Recover the id before full validation so even a rejected
         request gets a correlatable error. *)
      let id =
        match doc with
        | Jsonout.Obj fields -> ( try id_of fields with Error _ -> None)
        | _ -> None
      in
      try
        let req = request_of_json doc in
        match req.op with
        | Ping ->
            {
              response = plain ?id:req.id [ ("op", Jsonout.Str "ping") ];
              shutdown = false;
              telemetry = None;
            }
        | Shutdown ->
            if allow_shutdown then
              {
                response =
                  plain ?id:req.id
                    [ ("op", Jsonout.Str "shutdown");
                      ("stopping", Jsonout.Bool true) ];
                shutdown = true;
                telemetry = None;
              }
            else errorf Usage "shutdown is not permitted on this transport"
        | Stats ->
            let extra =
              match extra_stats with Some f -> f () | None -> []
            in
            {
              response =
                Jsonout.Obj
                  ([ ("schema", Jsonout.Str "eventorder.stats/1") ]
                  @ id_field req.id
                  @ [ ("status", Jsonout.Str "ok") ]
                  @ extra);
              shutdown = false;
              telemetry = None;
            }
        | Batch -> run_batch ?serialize config req
      with Error (code, msg) -> fail ?id code msg)
