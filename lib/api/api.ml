(* ------------------------------------------------------------------ *)
(* Errors                                                              *)
(* ------------------------------------------------------------------ *)

type error_code = Parse | Usage | Timeout | Overload | Internal

let code_string = function
  | Parse -> "parse"
  | Usage -> "usage"
  | Timeout -> "timeout"
  | Overload -> "overload"
  | Internal -> "internal"

exception Error of error_code * string

let errorf code fmt =
  Format.kasprintf (fun msg -> raise (Error (code, msg))) fmt

let error_schema = "eventorder.error/1"
let request_schema = "eventorder.request/1"
let response_schema = "eventorder.response/1"

let id_field = function Some id -> [ ("id", id) ] | None -> []

let error_doc ?id ~code msg =
  Jsonout.Obj
    ((("schema", Jsonout.Str error_schema) :: id_field id)
    @ [
        ("code", Jsonout.Str (code_string code)); ("error", Jsonout.Str msg);
      ])

(* ------------------------------------------------------------------ *)
(* Settings — the one resolver                                         *)
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

type settings = {
  engine : Engine.t;
  model : Memmodel.t;
  jobs : int;
  limit : int option;
  budget : Budget.t;
  cache : Session.cache;
}

let at_least ?(unit = "") name v =
  if v < 1 then errorf Usage "%s must be at least 1%s (got %d)" name unit v;
  v

(* A vocabulary setting: the flag, checked against the names [of_string]
   accepts, beats the environment variable, checked by its [Config]
   parser (whose message names the variable); [None] leaves the library
   default. *)
let vocabulary ~flag ~what ~names ~var ~check of_string = function
  | Some s -> (
      match of_string s with
      | Some _ as v -> v
      | None ->
          errorf Usage "unknown %s %S (valid %s: %s)" flag s what
            (String.concat ", " names))
  | None -> (
      match Sys.getenv_opt var with
      | None | Some "" -> None
      | Some s -> (
          match check s with
          | Ok name -> of_string name
          | Error msg -> errorf Usage "%s" msg))

(* The flag layer, each value validated here once: flag > environment
   (EO_ENGINE, EO_MODEL, EO_JOBS, EO_TIMEOUT_MS, EO_CACHE_DIR) >
   default.  A relative --cache is anchored at the current directory. *)
let config_of_flags ?engine ?model ?jobs ?limit ?timeout_ms ?cache
    ?(max_events = 40) () =
  let jobs =
    match jobs with Some j -> at_least "--jobs" j | None -> Config.jobs ()
  in
  let limit = Option.map (at_least "--limit") limit in
  let engine =
    vocabulary ~flag:"--engine" ~what:"engines" ~names:Config.engine_names
      ~var:"EO_ENGINE" ~check:Config.engine_of_string Engine.of_string engine
  in
  let model =
    vocabulary ~flag:"--model" ~what:"models" ~names:Config.model_names
      ~var:"EO_MODEL" ~check:Config.model_of_string Memmodel.of_string model
  in
  let timeout_ms =
    match timeout_ms with
    | Some ms -> Some (at_least ~unit:" millisecond" "--timeout" ms)
    | None -> Config.timeout_ms ()
  in
  let cache =
    match cache with
    | Some dir ->
        let dir =
          if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir
          else dir
        in
        { Session.memory = true; dir = Some dir }
    | None -> Session.default_cache ()
  in
  { engine; model; limit; jobs; max_events; timeout_ms; cache }

(* Request > flag layer > library default.  A request deadline is
   clamped to the flag layer's (a server --timeout is a hard ceiling)
   and inherits it when absent; request jobs can lower the flag layer's
   cap, not raise it.  The engine and model are selected domain-locally
   for the sessions and skeletons made after this call on this domain,
   which read them once; a request never sees the previous one's. *)
let resolve ?request (c : config) =
  let req f = match request with Some (r : request) -> f r | None -> None in
  let pick r c default =
    match (r, c) with Some v, _ | None, Some v -> v | None, None -> default ()
  in
  let engine = pick (req (fun r -> r.engine)) c.engine Engine.default_of_env in
  let model = pick (req (fun r -> r.model)) c.model Memmodel.default_of_env in
  let timeout_ms =
    match (req (fun r -> r.timeout_ms), c.timeout_ms) with
    | Some r, Some cap -> Some (min r cap)
    | Some r, None -> Some r
    | None, cap -> cap
  in
  let timeout_ms =
    Option.map (at_least ~unit:" millisecond" "timeout_ms") timeout_ms
  in
  let jobs =
    match req (fun r -> r.jobs) with
    | Some j -> min (at_least "jobs" j) c.jobs
    | None -> c.jobs
  in
  let limit =
    match req (fun r -> r.limit) with
    | Some l -> Some (at_least "limit" l)
    | None -> c.limit
  in
  let budget =
    match timeout_ms with
    | Some ms -> Budget.create ~timeout_ms:ms ()
    | None -> Budget.unlimited
  in
  Engine.set engine;
  Memmodel.set model;
  { engine; model; jobs; limit; budget; cache = c.cache }

(* The report of one run, stamped at birth with the engine and jobs the
   settings resolved to: [Session.create] stamps the runs that make a
   session, but schedules, consistent, reduce and the streaming path
   make none. *)
let telemetry s collect =
  if not collect then None
  else begin
    let tel = Telemetry.create () in
    Telemetry.set_run tel ~engine:(Engine.to_string s.engine) ~jobs:s.jobs;
    Some tel
  end

let counters = function
  | Some tel -> Telemetry.counters tel
  | None -> Counters.null

let session ?stats s sk =
  Session.create ?limit:s.limit ~jobs:s.jobs ?stats ~budget:s.budget
    ~cache:s.cache sk

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

let check_size ~who ~max_events n =
  if n > max_events then
    errorf Usage
      "trace has %d events; the exact engines are exponential and %d is past \
       %s --max-events %d"
      n n who max_events

(* Apparent and first races, the observed width and the parallelism
   profile are read off the recorded schedule, so a trace recording a
   schedule its own synchronization forbids is refused up front. *)
let check_recorded sk trace =
  try Replay.require sk (Trace.schedule trace)
  with Replay.Not_replayable msg -> errorf Parse "%s" msg

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
      | _ ->
          errorf Usage
            "unknown policy %S (expected rr, priority, or random:SEED)" s)

let policy_to_string = function
  | Sched.Round_robin | Sched.Replay _ -> "rr"
  | Sched.Priority -> "priority"
  | Sched.Random seed -> Printf.sprintf "random:%d" seed

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

let relation_of_string s =
  List.find_opt (fun r -> relation_key r = s) Relations.all_relations

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

(* The streaming path answers MHB/CHB between numeric event ids only. *)
let stream_query ~n q =
  let bad () =
    errorf Usage
      "--query expects REL:A:B with REL one of mhb, chb and A, B numeric \
       event ids (got %S)"
      q
  in
  match query_of_string q with
  | Pair (((Relations.MHB | Relations.CHB) as rel), rest) -> (
      match List.map int_of_string_opt (String.split_on_char ':' rest) with
      | [ Some a; Some b ] ->
          if a < 0 || a >= n || b < 0 || b >= n then
            errorf Usage "--query %S: event ids must be in [0, %d)" q n;
          ((if rel = Relations.MHB then Triage.S_mhb else Triage.S_chb), a, b)
      | _ -> bad ())
  | _ -> bad ()
  | exception Error _ -> bad ()

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

(* ------------------------------------------------------------------ *)
(* Rendering: one envelope, one renderer per schema                    *)
(* ------------------------------------------------------------------ *)

let str s = Jsonout.Str s
let int i = Jsonout.Int i
let ints l = Jsonout.List (List.map int l)

(* The pairs in lexicographic order, consed from the last back; [ints]
   holds one shared [Int] node per event. *)
let json_of_rel ints rel =
  let n = Rel.size rel in
  let pairs = ref [] in
  for a = n - 1 downto 0 do
    for b = n - 1 downto 0 do
      if Rel.mem rel a b then
        pairs := Jsonout.List [ ints.(a); ints.(b) ] :: !pairs
    done
  done;
  Jsonout.List !pairs

let json_of_race (x : Execution.t) (r : Race.race) =
  let label e = str x.Execution.events.(e).Event.label in
  Jsonout.Obj
    [
      ("e1", int r.Race.e1);
      ("e2", int r.Race.e2);
      ("labels", Jsonout.List [ label r.Race.e1; label r.Race.e2 ]);
      ("variables", ints r.Race.variables);
    ]

let races_json x races = Jsonout.List (List.map (json_of_race x) races)

let status_string budget = if Budget.exhausted budget then "timeout" else "ok"

(* Every document opens with its schema (and a request's id), then its
   "status" and "events" where the schema has them, and closes with the
   telemetry report when one was collected. *)
let envelope schema ?id ?budget ?events ?stats fields =
  let opt k f = function Some v -> [ (k, f v) ] | None -> [] in
  Jsonout.Obj
    ((("schema", str schema) :: id_field id)
    @ opt "status" (fun b -> str (status_string b)) budget
    @ opt "events" int events
    @ fields
    @ opt "stats" Telemetry.to_json stats)

let run_fields ?(model = false) s =
  (("engine", str (Engine.to_string s.engine))
  :: (if model then [ ("model", str (Memmodel.to_string s.model)) ] else []))
  @ [ ("jobs", int s.jobs) ]

let summary_fields (s : Relations.t) =
  [
    ("feasible_schedules", int s.Relations.feasible_count);
    ("truncated", Jsonout.Bool s.Relations.truncated);
    ("distinct_classes", int s.Relations.distinct_classes);
  ]

let relations_json (s : Relations.t) =
  let ints = Array.init s.Relations.n int in
  Jsonout.Obj
    (List.map
       (fun rel -> (relation_key rel, json_of_rel ints (Relations.to_rel s rel)))
       Relations.all_relations)

let result_json x { query; answer; timed_out } =
  Jsonout.Obj
    ([
       ("query", str query);
       ("status", str (if timed_out then "timeout" else "ok"));
     ]
    @
    match answer with
    | Summary s -> summary_fields s @ [ ("relations", relations_json s) ]
    | Race_list races -> [ ("races", races_json x races) ]
    | Count count ->
        [
          ("feasible_schedules", int count);
          ("saturated", Jsonout.Bool (count >= Reach.count_saturation));
        ]
    | Holds { relation; a_label; b_label; holds } ->
        [
          ("relation", str (relation_key relation));
          ("before", str a_label);
          ("after", str b_label);
          ("holds", Jsonout.Bool holds);
        ])

let pp_races x ppf name races =
  Format.fprintf ppf "%s: %d@." name (List.length races);
  List.iter (fun r -> Format.fprintf ppf "  %a@." (Race.pp_race x) r) races

let pp_count ppf prefix count =
  if count >= Reach.count_saturation then
    Format.fprintf ppf "%s>= 10^18@." prefix
  else Format.fprintf ppf "%s%d@." prefix count

let pp_result x ppf { query; answer; _ } =
  Format.fprintf ppf "-- %s --@." query;
  match answer with
  | Summary s ->
      Format.fprintf ppf "%a@." Relations.pp_summary (s, x.Execution.events)
  | Race_list races -> pp_races x ppf "races" races
  | Count count -> pp_count ppf "feasible schedules: " count
  | Holds { relation; a_label; b_label; holds } ->
      Format.fprintf ppf "'%s' %s '%s': %b@." a_label
        (String.uppercase_ascii (relation_key relation))
        b_label holds

type doc = {
  json : unit -> Jsonout.t;
  text : Format.formatter -> unit;
  exit_code : int;
}

(* Exit contract: 0 success, 1 the analysis check failed, 3 the deadline
   expired ("status": "timeout"; the caller reports the partial results
   and then does exit 3). *)
let doc ?(failed = false) s stats json text =
  {
    json;
    text =
      (fun ppf ->
        text ppf;
        Option.iter (Format.fprintf ppf "@.%a" Telemetry.pp) stats);
    exit_code = (if failed then 1 else if Budget.exhausted s.budget then 3 else 0);
  }

let labels_of x =
  Array.to_list (Array.map (fun e -> e.Event.label) x.Execution.events)

(* ------------------------------------------------------------------ *)
(* One-shot documents                                                  *)
(* ------------------------------------------------------------------ *)

let analyze s ~stats ~reduced ~all trace =
  let x = Trace.to_execution trace in
  let sk = Skeleton.of_execution x in
  check_recorded sk trace;
  let stats = telemetry s stats in
  (* One session answers everything; the class-level engine ignores
     --limit (its class walk is exact). *)
  let session =
    session ?stats (if reduced then { s with limit = None } else s) sk
  in
  let queries = if all then [ "races"; "first" ] else [] in
  let summary, races =
    match
      List.map
        (fun r -> r.answer)
        (answers session trace x
           ((if reduced then "reduced" else "relations") :: queries))
    with
    | [ Summary sm ] -> (sm, None)
    | [ Summary sm; Race_list feasible; Race_list first ] ->
        (sm, Some (feasible, first))
    | _ -> assert false
  in
  let width = Antichain.width (Pinned.po_of_schedule sk (Trace.schedule trace)) in
  doc s stats
    (fun () ->
      envelope "eventorder.analyze/1" ~budget:s.budget ~events:sk.Skeleton.n
        ?stats
        ((("labels", Jsonout.List (List.map str (labels_of x))) :: run_fields s)
        @ (("reduced", Jsonout.Bool reduced) :: summary_fields summary)
        @ [ ("width", int width); ("relations", relations_json summary) ]
        @
        match races with
        | None -> []
        | Some (feasible, first) ->
            [
              ("feasible_races", races_json x feasible);
              ("first_races", races_json x first);
            ]))
    (fun ppf ->
      Format.fprintf ppf "%a@." Relations.pp_summary (summary, x.Execution.events);
      Format.fprintf ppf
        "max concurrency (width of the observed pinned order): %d of %d \
         events@."
        width (Trace.n_events trace);
      Option.iter
        (fun (feasible, first) ->
          pp_races x ppf "feasible races (exact)" feasible;
          pp_races x ppf "first races (debugging frontier)" first)
        races)

let schedules s ~stats trace =
  let sk = Skeleton.of_execution (Trace.to_execution trace) in
  let stats = telemetry s stats in
  let c = counters stats in
  (* Each query degrades independently under the deadline: a cut DP
     count reads 0, states/deadlock fall back to the empty answer —
     "status" and the exit code say the run was partial. *)
  let degrade fallback f =
    try f ()
    with Budget.Expired ->
      Counters.bump c Counters.Timeout_expirations;
      Counters.bump c Counters.Timeout_degraded;
      fallback
  in
  let r = Reach.create ~stats:c ~budget:s.budget sk in
  let count, states, deadlock =
    Counters.time c Counters.T_total @@ fun () ->
    let count =
      degrade 0 (fun () ->
          Counters.time c Counters.T_count (fun () -> Reach.schedule_count r))
    in
    let deadlock = degrade false (fun () -> Reach.deadlock_reachable r) in
    (count, degrade 0 (fun () -> Reach.reachable_state_count r), deadlock)
  in
  Reach.stats_commit r;
  doc s stats
    (fun () ->
      envelope "eventorder.schedules/1" ~budget:s.budget ~events:sk.Skeleton.n
        ?stats
        [
          ("feasible_schedules", int count);
          ("saturated", Jsonout.Bool (count >= Reach.count_saturation));
          ("reachable_states", int states);
          ("deadlock_reachable", Jsonout.Bool deadlock);
        ])
    (fun ppf ->
      Format.fprintf ppf "events:                   %d@." sk.Skeleton.n;
      pp_count ppf "feasible schedules:       " count;
      Format.fprintf ppf "reachable states:         %d@." states;
      Format.fprintf ppf "deadlock reachable:       %b@." deadlock)

let races s ~stats ~witness trace =
  let x = Trace.to_execution trace in
  let stats = telemetry s stats in
  (* One session serves both race sets: the first-race refinement reuses
     the feasible set through the session cache. *)
  let session = session ?stats s (Skeleton.of_execution x) in
  check_recorded (Session.skeleton session) trace;
  let candidates = Race.conflicting_pairs x in
  let apparent = Race.apparent_races x in
  let feasible, first =
    match
      List.map (fun r -> r.answer) (answers session trace x [ "races"; "first" ])
    with
    | [ Race_list feasible; Race_list first ] -> (feasible, first)
    | _ -> assert false
  in
  let witnesses =
    if witness then
      List.filter_map
        (fun r ->
          Option.map (fun w -> (r, w)) (Race.race_witness x r.Race.e1 r.Race.e2))
        feasible
    else []
  in
  let witness_json (r, (s1, s2)) =
    Jsonout.Obj
      [
        ("e1", int r.Race.e1);
        ("e2", int r.Race.e2);
        ( "schedules",
          Jsonout.List [ ints (Array.to_list s1); ints (Array.to_list s2) ] );
      ]
  in
  doc s stats
    (fun () ->
      envelope "eventorder.races/1" ~budget:s.budget
        ~events:(Execution.n_events x) ?stats
        ([
           ("candidates", races_json x candidates);
           ("apparent", races_json x apparent);
           ("feasible", races_json x feasible);
           ("first", races_json x first);
         ]
        @
        if witness then
          [ ("witnesses", Jsonout.List (List.map witness_json witnesses)) ]
        else []))
    (fun ppf ->
      pp_races x ppf "candidate conflicting pairs" candidates;
      pp_races x ppf "apparent races (vector clock)" apparent;
      pp_races x ppf "feasible races (exact)" feasible;
      pp_races x ppf "first races (debugging frontier)" first;
      let schedule s =
        String.concat "; "
          (List.map
             (fun e -> x.Execution.events.(e).Event.label)
             (Array.to_list s))
      in
      List.iter
        (fun (r, (s1, s2)) ->
          Format.fprintf ppf "@.witness for %a:@.  %s@.  %s@." (Race.pp_race x)
            r (schedule s1) (schedule s2))
        witnesses)

(* The streaming path (the "eventorder.races_stream/1" schema): tier-1
   triage over a columnar trace, linear in its size, every reported race
   replay-certified and undecided candidates surfaced. *)
let races_stream s ~stats ~queries big =
  let stats = telemetry s stats in
  let report =
    Triage.races_big ~stats:(counters stats) ~budget:s.budget ~jobs:s.jobs
      ~queries big
  in
  let rel_name = function Triage.S_mhb -> "mhb" | Triage.S_chb -> "chb" in
  let verdict = Option.fold ~none:"unknown" ~some:string_of_bool in
  let answer_json (a : Triage.stream_answer) =
    Jsonout.Obj
      [
        ("relation", str (rel_name a.Triage.q_rel));
        ("before", int a.Triage.q_a);
        ("after", int a.Triage.q_b);
        ("verdict", str (verdict a.Triage.q_verdict));
      ]
  in
  doc s stats
    (fun () ->
      envelope "eventorder.races_stream/1" ~budget:s.budget
        ~events:report.Triage.events ?stats
        ([
           ("candidates", int report.Triage.candidates);
           ("observed_feasible", Jsonout.Bool report.Triage.observed_feasible);
           ("truncated", Jsonout.Bool report.Triage.truncated);
           ("refuted", int report.Triage.refuted);
           ("certified", int report.Triage.certified);
           ("undecided", int report.Triage.undecided);
           ( "races",
             Jsonout.List
               (List.map
                  (fun (e1, e2, vars) ->
                    Jsonout.Obj
                      [ ("e1", int e1); ("e2", int e2); ("variables", ints vars) ])
                  report.Triage.races) );
         ]
        @
        match report.Triage.answers with
        | [] -> []
        | answers -> [ ("queries", Jsonout.List (List.map answer_json answers)) ]))
    (fun ppf ->
      Format.fprintf ppf "events: %d@." report.Triage.events;
      List.iter
        (fun (a : Triage.stream_answer) ->
          Format.fprintf ppf "query %s(%d, %d): %s@." (rel_name a.Triage.q_rel)
            a.Triage.q_a a.Triage.q_b (verdict a.Triage.q_verdict))
        report.Triage.answers;
      Format.fprintf ppf "candidate conflicting pairs: %d%s@."
        report.Triage.candidates
        (if report.Triage.truncated then " (truncated)" else "");
      Format.fprintf ppf "refuted by forced-order clock: %d@."
        report.Triage.refuted;
      Format.fprintf ppf "undecided at streaming scale: %d@."
        report.Triage.undecided;
      Format.fprintf ppf "certified races (replayed both orders): %d@."
        report.Triage.certified;
      let label e = big.Bigtrace.events.(e).Event.label in
      List.iter
        (fun (e1, e2, vars) ->
          Format.fprintf ppf
            "  race between %s (event %d) and %s (event %d) on %s@." (label e1)
            e1 (label e2) e2
            (String.concat ", " (List.map (Printf.sprintf "v%d") vars)))
        report.Triage.races)

(* Many queries, one session: a single enumeration pass, reachability
   memo and cache entry set answer every query. *)
let batch s ~stats trace queries =
  let x = Trace.to_execution trace in
  let stats = telemetry s stats in
  let session = session ?stats s (Skeleton.of_execution x) in
  let results = answers session trace x queries in
  doc s stats
    (fun () ->
      envelope "eventorder.batch/1" ~budget:s.budget
        ~events:(Execution.n_events x) ?stats
        ((("program_key", str (Program_key.hash (Session.key session)))
         :: run_fields s)
        @ [ ("results", Jsonout.List (List.map (result_json x) results)) ]))
    (fun ppf -> List.iter (pp_result x ppf) results)

let reduce s ~stats ~style ~decide formula =
  let stats = telemetry s stats in
  let program, checks =
    match style with
    | `Sem ->
        let red = Reduction_sem.build formula in
        ( red.Reduction_sem.program,
          if decide then
            [
              Theorems.check_theorem_1 ?stats formula;
              Theorems.check_theorem_2 ?stats formula;
            ]
          else [] )
    | `Event ->
        let red = Reduction_evt.build formula in
        ( red.Reduction_evt.program,
          if decide then
            [
              Theorems.check_theorem_3 ?stats formula;
              Theorems.check_theorem_4 ?stats formula;
            ]
          else [] )
  in
  let check_json (c : Theorems.check) =
    Jsonout.Obj
      [
        ("theorem", int c.Theorems.theorem);
        ("satisfiable", Jsonout.Bool c.Theorems.satisfiable);
        ("ordering_holds", Jsonout.Bool c.Theorems.ordering_holds);
        ("agrees", Jsonout.Bool c.Theorems.agrees);
        ("events", int c.Theorems.n_events);
      ]
  in
  doc s stats
    (fun () ->
      envelope "eventorder.reduce/1" ?stats
        ([
           ("style", str (match style with `Sem -> "sem" | `Event -> "event"));
           ("variables", int formula.Cnf.num_vars);
           ("clauses", int (Cnf.num_clauses formula));
           ("program", str (Format.asprintf "%a" Ast.pp program));
         ]
        @
        if decide then [ ("checks", Jsonout.List (List.map check_json checks)) ]
        else []))
    (fun ppf ->
      Format.fprintf ppf "%a@." Ast.pp program;
      List.iter (fun c -> Format.fprintf ppf "%a@." Theorems.pp_check c) checks)

(* READ=WRITE with numeric ids; WRITE "init" is the initial value (-1). *)
let rf_override spec =
  let bad () =
    errorf Usage
      "--rf expects READ=WRITE with numeric event ids (WRITE also accepts \
       'init'); got %S"
      spec
  in
  match String.index_opt spec '=' with
  | None -> bad ()
  | Some i -> (
      let read = String.trim (String.sub spec 0 i) in
      let write =
        String.trim (String.sub spec (i + 1) (String.length spec - i - 1))
      in
      let write =
        if write = "init" then Some (-1) else int_of_string_opt write
      in
      match (int_of_string_opt read, write) with
      | Some r, Some w -> (r, w)
      | _ -> bad ())

let consistent s ~stats ~rf trace =
  let x = Trace.to_execution trace in
  let stats = telemetry s stats in
  let overrides = List.map rf_override rf in
  let observed = Candidate.infer_rf x in
  List.iter
    (fun (r, _) ->
      let reads (e : Candidate.rf_edge) = e.Candidate.read = r in
      if not (List.exists reads observed) then
        errorf Usage "--rf: event %d is not a shared-variable read of the trace"
          r)
    overrides;
  let rf =
    List.map
      (fun (e : Candidate.rf_edge) ->
        match List.assoc_opt e.Candidate.read overrides with
        | Some w -> { e with Candidate.write = w }
        | None -> e)
      observed
  in
  let candidate =
    try Candidate.make ~rf x
    with Candidate.Ill_formed msg ->
      errorf Usage "ill-formed reads-from assignment: %s" msg
  in
  let model = Memmodel.to_string s.model in
  let verdict = Candidate.check ~stats:(counters stats) ~model:s.model candidate in
  let label e = x.Execution.events.(e).Event.label in
  let rf_json (e : Candidate.rf_edge) =
    Jsonout.Obj
      [
        ("read", int e.Candidate.read);
        ( "write",
          if e.Candidate.write < 0 then str "init" else int e.Candidate.write );
        ("variable", int e.Candidate.var);
      ]
  in
  doc s stats
    ~failed:(match verdict with Candidate.Inconsistent _ -> true | _ -> false)
    (fun () ->
      envelope "eventorder.consistent/1" ~events:(Execution.n_events x) ?stats
        ([
           ("model", str model);
           ("rf", Jsonout.List (List.map rf_json candidate.Candidate.rf));
         ]
        @
        match verdict with
        | Candidate.Consistent w ->
            [
              ("verdict", str "consistent");
              ( "witness",
                Jsonout.Obj
                  [
                    ("order", ints (Array.to_list w.Candidate.order));
                    ( "co",
                      Jsonout.Obj
                        (List.map
                           (fun (v, ws) -> (Printf.sprintf "v%d" v, ints ws))
                           w.Candidate.co) );
                  ] );
            ]
        | Candidate.Inconsistent reason ->
            [ ("verdict", str "inconsistent"); ("reason", str reason) ]))
    (fun ppf ->
      Format.fprintf ppf "model: %s@." model;
      Format.fprintf ppf "events: %d@." (Execution.n_events x);
      List.iter
        (fun (e : Candidate.rf_edge) ->
          Format.fprintf ppf "rf: '%s' (event %d) reads %s on v%d@."
            (label e.Candidate.read) e.Candidate.read
            (if e.Candidate.write < 0 then "the initial value"
             else
               Printf.sprintf "'%s' (event %d)" (label e.Candidate.write)
                 e.Candidate.write)
            e.Candidate.var)
        candidate.Candidate.rf;
      match verdict with
      | Candidate.Consistent w ->
          Format.fprintf ppf "verdict: consistent under %s@." model;
          Format.fprintf ppf "witness order: %s@."
            (String.concat "; " (List.map label (Array.to_list w.Candidate.order)));
          List.iter
            (fun (v, ws) ->
              Format.fprintf ppf "coherence v%d: %s@." v
                (String.concat " -> " (List.map label ws)))
            w.Candidate.co
      | Candidate.Inconsistent reason ->
          Format.fprintf ppf "verdict: inconsistent under %s@." model;
          Format.fprintf ppf "reason: %s@." reason)

(* ------------------------------------------------------------------ *)
(* Requests — the wire layer                                           *)
(* ------------------------------------------------------------------ *)

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

let field kind extract fields k =
  match List.assoc_opt k fields with
  | None | Some Jsonout.Null -> None
  | Some v -> (
      match extract v with
      | Some _ as v -> v
      | None -> errorf Usage "field %S must be %s" k kind)

let string_field =
  field "a string" (function Jsonout.Str s -> Some s | _ -> None)

let int_field = field "an integer" (function Jsonout.Int i -> Some i | _ -> None)

let bool_field =
  field "a boolean" (function Jsonout.Bool b -> Some b | _ -> None)

let string_list_field =
  field "a list of strings" (function
    | Jsonout.List items ->
        let strs =
          List.filter_map (function Jsonout.Str s -> Some s | _ -> None) items
        in
        if List.length strs = List.length items then Some strs else None
    | _ -> None)

let op_of_string = function
  | "batch" -> Batch
  | "stats" -> Stats
  | "ping" -> Ping
  | "shutdown" -> Shutdown
  | s -> errorf Usage "unknown op %S (expected batch, stats, ping or shutdown)" s

let request_of_json doc =
  let fields = fields_of doc in
  (match string_field fields "schema" with
  | Some s when s = request_schema -> ()
  | Some s ->
      errorf Usage "unknown request schema %S (expected %S)" s request_schema
  | None ->
      errorf Usage "request is missing its \"schema\" field (%S)"
        request_schema);
  let named what names of_string k =
    Option.map
      (fun s ->
        match of_string s with
        | Some v -> v
        | None ->
            errorf Usage "unknown %s %S (expected %s)" what s
              (String.concat ", " names))
      (string_field fields k)
  in
  let engine = named "engine" Config.engine_names Engine.of_string "engine" in
  let model = named "model" Config.model_names Memmodel.of_string "model" in
  {
    id = id_of fields;
    op = Option.fold ~none:Batch ~some:op_of_string (string_field fields "op");
    program = string_field fields "program";
    trace_text = string_field fields "trace";
    policy =
      Option.fold ~none:Sched.Round_robin ~some:policy_of_string
        (string_field fields "policy");
    queries = Option.value ~default:[] (string_list_field fields "queries");
    engine;
    model;
    limit = int_field fields "limit";
    timeout_ms = int_field fields "timeout_ms";
    jobs = int_field fields "jobs";
    collect_stats = Option.value ~default:false (bool_field fields "stats");
  }

let request_op = function
  | Jsonout.Obj fields -> (
      match List.assoc_opt "op" fields with
      | None -> Some Batch
      | Some (Jsonout.Str s) -> ( try Some (op_of_string s) with Error _ -> None)
      | Some _ -> None)
  | _ -> None

let request_id = function
  | Jsonout.Obj fields -> ( try id_of fields with Error _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Handling                                                            *)
(* ------------------------------------------------------------------ *)

type handled = {
  response : Jsonout.t;
  shutdown : bool;
  telemetry : Telemetry.t option;
}

let reply ?(shutdown = false) ?telemetry response =
  { response; shutdown; telemetry }

let outcome_string = function
  | Trace.Completed -> "completed"
  | Trace.Deadlocked _ -> "deadlocked"
  | Trace.Fuel_exhausted -> "fuel_exhausted"

let run_batch ?serialize config (req : request) =
  let s = resolve ~request:req config in
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
  check_size ~who:"the server's" ~max_events:config.max_events n;
  if req.queries = [] then
    errorf Usage "batch request has an empty \"queries\" list";
  let x = Trace.to_execution trace in
  let stats = telemetry s req.collect_stats in
  let session = session ?stats s (Skeleton.of_execution x) in
  Triage.attach session;
  let key = Program_key.hash (Session.key session) in
  let compute () =
    let results = answers session trace x req.queries in
    envelope response_schema ?id:req.id ~budget:s.budget ?stats
      ([
         ("op", str "batch");
         ("events", int n);
         ("outcome", str (outcome_string trace.Trace.outcome));
         ("program_key", str key);
       ]
      @ run_fields ~model:true s
      @ [ ("results", Jsonout.List (List.map (result_json x) results)) ])
  in
  let response =
    match serialize with Some f -> f key compute | None -> compute ()
  in
  reply ?telemetry:stats response

let handle_json ?(allow_shutdown = false) ?extra_stats ?serialize config
    parsed =
  let fail ?id code msg = reply (error_doc ?id ~code msg) in
  match parsed with
  | Stdlib.Error msg -> fail Parse (Printf.sprintf "malformed request: %s" msg)
  | Ok doc -> (
      (* Recover the id before full validation so even a rejected
         request gets a correlatable error. *)
      let id = request_id doc in
      let ok ?shutdown schema fields =
        reply ?shutdown (envelope schema ?id ~budget:Budget.unlimited fields)
      in
      try
        let req = request_of_json doc in
        match req.op with
        | Ping -> ok response_schema [ ("op", str "ping") ]
        | Shutdown ->
            if allow_shutdown then
              ok ~shutdown:true response_schema
                [ ("op", str "shutdown"); ("stopping", Jsonout.Bool true) ]
            else errorf Usage "shutdown is not permitted on this transport"
        | Stats ->
            ok "eventorder.stats/1"
              (match extra_stats with Some f -> f () | None -> [])
        | Batch -> run_batch ?serialize config req
      with
      | Error (code, msg) -> fail ?id code msg
      (* Any other escape is a defect, not an input error: it still
         answers one document, and the domain that ran it lives on. *)
      | e -> fail ?id Internal ("internal error: " ^ Printexc.to_string e))

let handle_line ?allow_shutdown ?extra_stats ?serialize config line =
  handle_json ?allow_shutdown ?extra_stats ?serialize config (Jsonin.parse line)
