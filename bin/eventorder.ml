(* eventorder — command-line front end for the event-ordering analyses.

   Subcommands:
     analyze    run a program and print the six Table-1 relation matrices
     batch      answer many queries about one program from one session
     report     one-shot comprehensive analysis of a program or trace
     explore    all executions of a loop-free program (counts, finals)
     order      decide the relations for one labelled pair, with a witness
     consistent decide rf/co consistency under a memory model, with witness
     schedules  count feasible schedules / states, check for deadlocks
     races      report apparent and feasible data races
     gen        generate a large synthetic trace
     encode     compile one per-pair query to DIMACS
     taskgraph  Emrath-Ghosh-Padua task-graph claims vs the exact engine
     reduce     build the Theorem 1/3 reduction program from a DIMACS file
     theorems   machine-check Theorems 1-4 on a formula
     figure1    reproduce the paper's Figure 1 discrepancy
     record     save an observed execution as a *.eotrace file
     dot        render executions / pinned orders / task graphs as DOT
     fuzz       differential testing of the engines on random programs
     serve      answer NDJSON requests over a socket
     client     send one request to a running server

   Every subcommand resolves its settings through [Api] (lib/api).  The
   ones with an eventorder.*/1 document (analyze, races, schedules,
   batch, reduce, consistent) print the document [Api] answers and
   renders, exiting with its code; the text reports (report, order,
   taskgraph, encode, dot, ...) call the library directly.  Nothing
   here spells a schema or picks an engine. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments and helpers                                        *)
(* ------------------------------------------------------------------ *)

let program_file =
  let doc =
    "Program source file (see README for the syntax), or a saved trace \
     (*.eotrace) produced by the 'record' subcommand."
  in
  Arg.(required & pos 0 (some non_dir_file) None & info [] ~docv:"FILE" ~doc)

let policy_arg =
  let doc =
    "Scheduling policy for the observed execution: 'rr' (round robin), \
     'priority', or 'random:SEED'."
  in
  let parse s =
    try Ok (Api.policy_of_string s) with Api.Error (_, msg) -> Error (`Msg msg)
  in
  let print ppf p = Format.pp_print_string ppf (Api.policy_to_string p) in
  Arg.(
    value
    & opt (conv (parse, print)) Sched.Round_robin
    & info [ "policy" ] ~docv:"POLICY" ~doc)

let limit_arg =
  let doc =
    "Cap on the number of feasible schedules enumerated (the exact \
     engines are exponential; capped results under-approximate the \
     could-have relations).  At least 1."
  in
  Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the exact engines.  Defaults to the EO_JOBS \
     environment variable, else 1.  Results are deterministic and \
     bit-identical to --jobs 1; only the wall-clock changes."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let engine_arg =
  let doc =
    "Exact engine backing the per-pair queries: 'naive' (schedule \
     enumeration), 'packed' (bitset-packed memoized search, the default), \
     'sat' (compile feasibility to CNF and decide with the in-repo \
     CDCL solver; every witness is replay-certified), or 'auto' (tiered \
     triage: polynomial one-sided deciders first, escalating undecided \
     queries through reachability, SAT and bounded enumeration, each \
     tier under its own budget slice).  Overrides the EO_ENGINE \
     environment variable."
  in
  Arg.(value & opt (some string) None & info [ "engine" ] ~docv:"ENGINE" ~doc)

let model_arg =
  let doc =
    "Memory model governing which program-order edges every feasible \
     schedule must respect: 'sc' (sequential consistency, the paper's \
     F1-F3 semantics, the default), 'tso' (total store order: a pure \
     write may be delayed past later reads of its own process), or \
     'pso' (partial store order: a pure write may additionally be \
     delayed past later independent writes).  Synchronization events \
     fence under every model, and program-ordered accesses of the same \
     variable stay ordered (per-location coherence).  Overrides the \
     EO_MODEL environment variable."
  in
  Arg.(value & opt (some string) None & info [ "model" ] ~docv:"MODEL" ~doc)

let timeout_arg =
  let doc =
    "Wall-clock budget for the exact engines, in milliseconds.  When the \
     deadline expires the engines stop cooperatively and the command \
     reports partial results: could-have relations and race sets \
     under-approximate, must-have relations over-approximate — the same \
     sound directions as --limit.  JSON output then carries \
     \"status\": \"timeout\" and the exit code is 3.  Overrides the \
     EO_TIMEOUT_MS environment variable."
  in
  Arg.(value & opt (some int) None & info [ "timeout" ] ~docv:"MS" ~doc)

let cache_arg =
  let doc =
    "Directory for the on-disk result cache (created on first store).  \
     Overrides the EO_CACHE_DIR environment variable.  Entries are keyed \
     by a canonical program hash plus the engine and enumeration limit, \
     so a stale hit is impossible; delete the directory to reclaim the \
     space.  Without this flag and without EO_CACHE_DIR only the \
     in-process cache is used."
  in
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR" ~doc)

let stats_arg =
  let doc =
    "Collect engine telemetry (search-node, prune and memo counters, phase \
     timers, parallel split metadata) and include it in the output.  The \
     search counters are bit-identical across --jobs settings."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let format_arg =
  let doc =
    "Output format: 'text' (human-readable, the default) or 'json' \
     (machine-readable; each subcommand emits one object with a 'schema' \
     field naming its stable layout)."
  in
  Arg.(
    value
    & opt (enum [ ("text", false); ("json", true) ]) false
    & info [ "format" ] ~docv:"FMT" ~doc)

let max_events_arg =
  let doc =
    "Refuse to run the exponential engines on traces with more events than \
     this (override consciously)."
  in
  Arg.(value & opt int 40 & info [ "max-events" ] ~docv:"N" ~doc)

let print_json doc = print_string (Jsonout.to_string_pretty doc)

(* Fatal CLI error.  In text mode the message goes to stderr, prefixed
   with "error: " unless [~locate] says it carries its own location
   prefix (parse errors print "file:line: ...").  Under --format json,
   stdout gets a single well-formed eventorder.error/1 object instead —
   consumers of the JSON surface never have to parse free-form stderr —
   and the exit code is 2 either way.  [~code] is the machine-readable
   error class of the JSON object ("usage" unless stated otherwise). *)
let die_error ?(locate = false) ?(code = Api.Usage) ~json fmt =
  Format.kasprintf
    (fun msg ->
      if json then print_json (Api.error_doc ~code msg)
      else if locate then Format.eprintf "%s@." msg
      else Format.eprintf "error: %s@." msg;
      exit 2)
    fmt

(* A subcommand body: any [Api.Error] it raises is fatal (exit 2). *)
let cli ?(json = false) f =
  try f () with Api.Error (code, msg) -> die_error ~code ~json "%s" msg

(* Prints a document and exits with its code; a partial (timed-out) text
   report says so on stderr. *)
let emit ~json (d : Api.doc) =
  if json then print_json (d.Api.json ()) else d.Api.text Format.std_formatter;
  if d.Api.exit_code = 3 && not json then
    Format.eprintf
      "note: --timeout expired; the results above are partial (sound \
       approximations)@.";
  exit d.Api.exit_code

let settings ?engine ?model ?jobs ?limit ?timeout ?cache () =
  Api.resolve
    (Api.config_of_flags ?engine ?model ?jobs ?limit ?timeout_ms:timeout
       ?cache ())

(* Subcommands without engine flags still run under the engine and model
   the environment selects, validated as the flags are. *)
let select () = ignore (settings ~jobs:1 () : Api.settings)

let parse_program_file ?(json = false) path =
  try Parse.program_file path
  with Parse.Syntax_error { line; message } ->
    die_error ~locate:true ~code:Api.Parse ~json "%s:%d: syntax error: %s"
      path line message

let load_trace ?(json = false) path policy =
  let trace =
    if Filename.check_suffix path ".eotrace" then (
      try Trace_io.load path
      with Failure message ->
        die_error ~locate:true ~code:Api.Parse ~json "%s: malformed trace: %s"
          path message)
    else Interp.run ~policy (parse_program_file ~json path)
  in
  (* Under --format json the notes move to stderr so stdout stays one
     well-formed JSON document. *)
  let note ppf = if json then Format.eprintf ppf else Format.printf ppf in
  (match trace.Trace.outcome with
  | Trace.Completed -> ()
  | Trace.Deadlocked pids ->
      note
        "note: the observed execution deadlocked (blocked processes: %s); \
         analysing the events that did run@."
        (String.concat ", " (List.map string_of_int pids))
  | Trace.Fuel_exhausted ->
      note "note: fuel exhausted; analysing the recorded prefix@.");
  trace

(* A formula that does not parse is a typed parse error, like a
   malformed trace. *)
let load_dimacs ?(json = false) path =
  try Dimacs.parse_file path with
  | Failure message ->
      die_error ~locate:true ~code:Api.Parse ~json "%s: malformed DIMACS: %s"
        path message
  | Sys_error message -> die_error ~json "%s" message

let guard trace max_events =
  Api.check_size ~who:"the configured" ~max_events (Trace.n_events trace)

(* ------------------------------------------------------------------ *)
(* The one-shot documents                                              *)
(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let reduced_arg =
    let doc =
      "Use the class-level engine (partial-order reduction + one state \
       reachability pass) even where the matrices would otherwise come \
       from raw schedule enumeration: under --limit (which it ignores; \
       its class walk is exact) and under --engine naive.  Same results."
    in
    Arg.(value & flag & info [ "reduced" ] ~doc)
  in
  let all_arg =
    let doc =
      "Also report the feasible and first data races, decided from the \
       same analysis session (one summary, one cache entry each — cheaper \
       than running 'analyze' and 'races' separately)."
    in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let run file policy limit timeout max_events reduced all jobs engine model
      stats json cache =
    cli ~json @@ fun () ->
    let s = settings ?engine ?model ?jobs ?limit ?timeout ?cache () in
    let trace = load_trace ~json file policy in
    if not json then Format.printf "%a@." Trace.pp trace;
    guard trace max_events;
    emit ~json (Api.analyze s ~stats ~reduced ~all trace)
  in
  let doc = "run a program and print the six Table-1 ordering relations" in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(
      const run $ program_file $ policy_arg $ limit_arg $ timeout_arg
      $ max_events_arg $ reduced_arg $ all_arg $ jobs_arg $ engine_arg
      $ model_arg $ stats_arg $ format_arg $ cache_arg)

let schedules_cmd =
  let run file policy timeout max_events stats json =
    cli ~json @@ fun () ->
    let s = settings ~jobs:1 ?timeout () in
    let trace = load_trace ~json file policy in
    guard trace max_events;
    emit ~json (Api.schedules s ~stats trace)
  in
  let doc = "count feasible schedules and states; check for reachable deadlocks" in
  Cmd.v
    (Cmd.info "schedules" ~doc)
    Term.(
      const run $ program_file $ policy_arg $ timeout_arg $ max_events_arg
      $ stats_arg $ format_arg)

let races_cmd =
  let witness_arg =
    let doc = "For each feasible race, print the pair of interleavings that \
               exhibit it." in
    Arg.(value & flag & info [ "witness" ] ~doc)
  in
  let stream_query_arg =
    let doc =
      "Answer one per-pair ordering query on the streaming path, REL:A:B \
       with REL 'mhb' (must happen before) or 'chb' (could happen \
       before) and A, B numeric event ids of the trace.  Repeatable.  \
       Queries are answered by the tier-1 devices only, so each verdict \
       is true, false, or unknown (undecided at streaming scale)."
    in
    Arg.(value & opt_all string [] & info [ "query" ] ~docv:"REL:A:B" ~doc)
  in
  let run file policy limit timeout max_events witness jobs engine model
      queries stats json cache =
    cli ~json @@ fun () ->
    let s = settings ?engine ?model ?jobs ?limit ?timeout ?cache () in
    (* Under the auto engine a saved trace bigger than --max-events is
       not rejected but routed through the columnar reader and the
       tier-1 triage pipeline. *)
    let big =
      if s.Api.engine = Engine.Auto && Filename.check_suffix file ".eotrace"
      then
        let big =
          try Bigtrace.read file
          with Failure message ->
            die_error ~locate:true ~code:Api.Parse ~json
              "%s: malformed trace: %s" file message
        in
        if Bigtrace.n_events big > max_events then Some big else None
      else None
    in
    match big with
    | Some big ->
        let n = Bigtrace.n_events big in
        let queries = List.map (Api.stream_query ~n) queries in
        if witness then
          Format.eprintf
            "note: --witness is unavailable on the streaming path (the \
             certifying schedules are the whole trace)@.";
        emit ~json (Api.races_stream s ~stats ~queries big)
    | None ->
        if queries <> [] then
          die_error ~json
            "--query runs on the streaming path only (a saved *.eotrace \
             bigger than --max-events under --engine auto); use the batch \
             subcommand for per-pair queries at exact scale";
        let trace = load_trace ~json file policy in
        guard trace max_events;
        emit ~json (Api.races s ~stats ~witness trace)
  in
  let doc = "detect apparent (polynomial) and feasible (exact) data races" in
  Cmd.v
    (Cmd.info "races" ~doc)
    Term.(
      const run $ program_file $ policy_arg $ limit_arg $ timeout_arg
      $ max_events_arg $ witness_arg $ jobs_arg $ engine_arg $ model_arg
      $ stream_query_arg $ stats_arg $ format_arg $ cache_arg)

(* Many queries, one session: a single enumeration pass, reachability
   memo and cache entry set answer every query on the command line, so
   asking six questions costs barely more than asking one. *)
let batch_cmd =
  let queries_arg =
    let doc =
      "Queries to answer, in order.  Whole-program: 'relations' (the six \
       matrices: by the class-level engine, or by full enumeration under \
       --limit or --engine naive), 'reduced' (the same by the class-level \
       engine, whatever the limit), 'races' (feasible races), 'first' (first \
       races), 'schedules' (the feasible-schedule count).  Per-pair: \
       REL:A:B with REL one of mhb, chb, mcw, ccw, mow, cow and A, B \
       event labels (e.g. mhb:w1:r2)."
    in
    Arg.(non_empty & pos_right 0 string [] & info [] ~docv:"QUERY" ~doc)
  in
  let run file policy limit timeout max_events jobs engine model stats json
      cache queries =
    cli ~json @@ fun () ->
    let s = settings ?engine ?model ?jobs ?limit ?timeout ?cache () in
    let trace = load_trace ~json file policy in
    guard trace max_events;
    emit ~json (Api.batch s ~stats trace queries)
  in
  let doc =
    "answer many queries about one program from a single shared analysis \
     session"
  in
  Cmd.v
    (Cmd.info "batch" ~doc)
    Term.(
      const run $ program_file $ policy_arg $ limit_arg $ timeout_arg
      $ max_events_arg $ jobs_arg $ engine_arg $ model_arg $ stats_arg
      $ format_arg $ cache_arg $ queries_arg)

let consistent_cmd =
  let rf_arg =
    let doc =
      "Override the reads-from source of one read, as READ=WRITE with \
       READ and WRITE numeric event ids (WRITE also accepts 'init', \
       the variable's initial value).  Repeatable.  Reads not \
       overridden keep the observed source: the last write to their \
       variable that ran temporally before them."
    in
    Arg.(value & opt_all string [] & info [ "rf" ] ~docv:"READ=WRITE" ~doc)
  in
  let run file policy max_events model rf stats json =
    cli ~json @@ fun () ->
    let s = settings ~jobs:1 ?model () in
    let trace = load_trace ~json file policy in
    guard trace max_events;
    emit ~json (Api.consistent s ~stats ~rf trace)
  in
  let doc =
    "decide whether a reads-from assignment over the observed events is \
     consistent under a memory model (--model sc|tso|pso), with a \
     replayable total-order and coherence witness"
  in
  Cmd.v
    (Cmd.info "consistent" ~doc)
    Term.(
      const run $ program_file $ policy_arg $ max_events_arg $ model_arg
      $ rf_arg $ stats_arg $ format_arg)

let reduce_cmd =
  let style_arg =
    let doc = "Synchronization style: 'sem' (Theorem 1/2) or 'event' (Theorem 3/4)." in
    Arg.(
      value
      & opt (enum [ ("sem", `Sem); ("event", `Event) ]) `Sem
      & info [ "style" ] ~docv:"STYLE" ~doc)
  in
  let decide_arg =
    let doc = "Also decide a MHB b / b CHB a with the exact engine and cross-check DPLL." in
    Arg.(value & flag & info [ "decide" ] ~doc)
  in
  let dimacs_file =
    let doc = "3-CNF formula in DIMACS format." in
    Arg.(required & pos 0 (some non_dir_file) None & info [] ~docv:"DIMACS" ~doc)
  in
  let run style decide file stats json =
    cli ~json @@ fun () ->
    let s = settings ~jobs:1 () in
    emit ~json (Api.reduce s ~stats ~style ~decide (load_dimacs ~json file))
  in
  let doc = "build the Theorem 1-4 reduction program from a DIMACS 3-CNF" in
  Cmd.v
    (Cmd.info "reduce" ~doc)
    Term.(
      const run $ style_arg $ decide_arg $ dimacs_file $ stats_arg
      $ format_arg)

(* ------------------------------------------------------------------ *)
(* Text reports                                                        *)
(* ------------------------------------------------------------------ *)

let order_cmd =
  let label n =
    let doc = Printf.sprintf "Label of the %s event of the pair." n in
    Arg.(
      required
      & opt (some string) None
      & info [ n ] ~docv:(String.uppercase_ascii n) ~doc)
  in
  let run file policy max_events a_label b_label =
    cli @@ fun () ->
    select ();
    let trace = load_trace file policy in
    guard trace max_events;
    let x = Trace.to_execution trace in
    let id label =
      match Trace.find_event_opt trace label with
      | Some e -> e.Event.id
      | None -> Api.errorf Api.Usage "no event is labelled %S" label
    in
    let a = id a_label in
    let b = id b_label in
    let d = Decide.create x in
    let show rel (a, al) (b, bl) =
      Format.printf "%-40s %b@."
        (Printf.sprintf "'%s' %s '%s':" al
           (String.uppercase_ascii (Api.relation_key rel))
           bl)
        (Decide.holds d rel a b)
    in
    show Relations.MHB (a, a_label) (b, b_label);
    show Relations.CHB (a, a_label) (b, b_label);
    show Relations.CHB (b, b_label) (a, a_label);
    show Relations.CCW (a, a_label) (b, b_label);
    show Relations.MOW (a, a_label) (b, b_label);
    (* The witness search shares the session's memoized state engine with
       the five decisions above. *)
    match Reach.witness_before (Session.reach (Decide.session d)) b a with
    | None ->
        Format.printf "no feasible execution runs '%s' before '%s'@." b_label
          a_label
    | Some schedule ->
        Format.printf "witness schedule running '%s' before '%s':@." b_label
          a_label;
        Array.iteri
          (fun i e ->
            Format.printf "  %2d  %s@." i x.Execution.events.(e).Event.label)
          schedule
  in
  let doc =
    "decide the ordering relations for one labelled pair and print a \
     witness schedule for the reversed order when one exists"
  in
  Cmd.v
    (Cmd.info "order" ~doc)
    Term.(
      const run $ program_file $ policy_arg $ max_events_arg $ label "before"
      $ label "after")

let report_cmd =
  let run file policy max_events jobs cache =
    cli @@ fun () ->
    let s = settings ?jobs ?cache () in
    let trace = load_trace file policy in
    guard trace max_events;
    let x = Trace.to_execution trace in
    let sk = Skeleton.of_execution x in
    Api.check_recorded sk trace;
    let n = Trace.n_events trace in
    (* Every section below draws on one session: one reachability memo,
       one class-level summary, one (cached) race set. *)
    let session = Session.create ~jobs:s.Api.jobs ~cache:s.Api.cache sk in
    Format.printf "=== execution ===@.%a@." Trace.pp trace;

    Format.printf "=== feasible executions ===@.";
    let r = Session.reach session in
    let count = Reach.schedule_count r in
    if count >= Reach.count_saturation then
      Format.printf "feasible schedules: >= 10^18@."
    else Format.printf "feasible schedules: %d@." count;
    Format.printf "reachable states:   %d@." (Reach.reachable_state_count r);
    (match Reach.deadlock_witness r with
    | None -> Format.printf "reachable deadlock: none@."
    | Some prefix ->
        Format.printf "reachable deadlock: yes, e.g. after [%s]@."
          (String.concat "; "
             (Array.to_list
                (Array.map (fun e -> x.Execution.events.(e).Event.label) prefix))));

    Format.printf "@.=== ordering relations (pair counts) ===@.";
    let s = Relations.of_session_reduced session in
    Format.printf "distinct classes:   %d@." s.Relations.distinct_classes;
    List.iter
      (fun rel ->
        Format.printf "%-34s %d pairs@."
          (Relations.relation_name rel)
          (Rel.pair_count (Relations.to_rel s rel)))
      Relations.all_relations;
    let para = Parallelism.analyze sk (Trace.schedule trace) in
    Format.printf
      "max concurrency (width): %d of %d events; critical path: %d; \
       speedup limit: %.2f@."
      para.Parallelism.width n
      para.Parallelism.critical_path_length
      (Parallelism.speedup_limit para);

    Format.printf "@.=== races ===@.";
    let print_races name races =
      Format.printf "%-10s %d@." name (List.length races);
      List.iter (fun race -> Format.printf "  %a@." (Race.pp_race x) race) races
    in
    print_races "apparent:" (Race.apparent_races x);
    print_races "feasible:" (Race.feasible_races_session session);
    print_races "first:" (Race.first_races_session session);

    Format.printf "@.=== polynomial approximations vs exact MHB ===@.";
    let d = Decide.of_session session in
    let mhb_count = ref 0 and missed_by_graph = ref 0 in
    let egp = Egp.build x in
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        if a <> b && Decide.holds d Relations.MHB a b then begin
          incr mhb_count;
          if not (Egp.guaranteed_before egp a b) then incr missed_by_graph
        end
      done
    done;
    Format.printf "exact MHB pairs:            %d@." !mhb_count;
    Format.printf "missed by the task graph:   %d@." !missed_by_graph;
    let h = Hmw.of_execution x in
    Format.printf "HMW phase-3 safe pairs:     %d@."
      (Rel.pair_count h.Hmw.phase3)
  in
  let doc = "one-shot comprehensive analysis: schedules, relations, races, approximations" in
  Cmd.v
    (Cmd.info "report" ~doc)
    Term.(
      const run $ program_file $ policy_arg $ max_events_arg $ jobs_arg
      $ cache_arg)

let taskgraph_cmd =
  let run file policy max_events =
    cli @@ fun () ->
    select ();
    let trace = load_trace file policy in
    let x = Trace.to_execution trace in
    let egp = Egp.build x in
    Format.printf "task graph: %d sync nodes, %d synchronization edges@."
      (Digraph.size (Egp.graph egp))
      (Egp.sync_edge_count egp);
    let claims = Egp.guaranteed_rel egp in
    Format.printf "claimed guaranteed orderings: %d@." (Rel.pair_count claims);
    if Trace.n_events trace <= max_events then begin
      let d = Decide.create x in
      let missed = ref 0 in
      let n = Execution.n_events x in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if a <> b && Decide.holds d Relations.MHB a b && not (Rel.mem claims a b)
          then begin
            incr missed;
            Format.printf "  missed: %s MHB %s@."
              x.Execution.events.(a).Event.label
              x.Execution.events.(b).Event.label
          end
        done
      done;
      Format.printf "orderings the exact engine proves but the graph misses: %d@."
        !missed
    end
    else
      Format.printf
        "(trace too large for the exact comparison; raise --max-events)@."
  in
  let doc = "build the Emrath-Ghosh-Padua task graph and compare with the exact engine" in
  Cmd.v
    (Cmd.info "taskgraph" ~doc)
    Term.(const run $ program_file $ policy_arg $ max_events_arg)

(* Dump one per-pair query as a standalone DIMACS CNF instance — the
   exact formula the [sat] engine probes with assumptions, with the
   assumption materialized as a unit clause so any external solver can
   decide it.  Comment lines state the query and its semantics. *)
let encode_cmd =
  let query_arg =
    let doc =
      "The query to compile, REL:A:B with A, B event labels or numeric \
       event ids.  REL is one of: 'chb' (satisfiable iff A could have \
       happened before B), 'mhb' (the refutation probe — unsatisfiable \
       iff A must have happened before B, provided the base formula is \
       satisfiable), or 'ccw' (the two-copy formula, satisfiable iff A \
       and B could have been concurrent)."
    in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc)
  in
  let run file policy max_events query =
    cli @@ fun () ->
    select ();
    let trace = load_trace file policy in
    guard trace max_events;
    let x = Trace.to_execution trace in
    let sk = Skeleton.of_execution x in
    let unknown () =
      Api.errorf Api.Usage
        "unknown query %S (expected REL:A:B with REL one of chb, mhb, ccw)"
        query
    in
    let rel, rest =
      match Api.query_of_string query with
      | Api.Pair (rel, rest) -> (rel, rest)
      | _ -> unknown ()
      | exception Api.Error (Api.Usage, _) -> unknown ()
    in
    let a_label, b_label, a, b = Api.resolve_pair trace x ~query rest in
    let enc = Encode.build (Session.encode_program sk) in
    (* The assumption literal becomes a unit clause; a pair closed by
       program order / dependence folds to the base formula (the asked
       direction is forced anyway) or to an explicit empty clause (the
       asked direction is impossible). *)
    let assume base = function
      | `Always -> base
      | `Never -> Cnf.make ~num_vars:base.Cnf.num_vars ([] :: base.Cnf.clauses)
      | `Lit l -> Cnf.make ~num_vars:base.Cnf.num_vars ([ l ] :: base.Cnf.clauses)
    in
    let key = Api.relation_key rel in
    let f, semantics =
      match rel with
      | Relations.CHB ->
          ( assume (Encode.cnf enc) (Encode.order_literal enc a b),
            "satisfiable iff A could have happened before B" )
      | Relations.MHB ->
          ( assume (Encode.cnf enc) (Encode.order_literal enc b a),
            "unsatisfiable iff A must have happened before B (given the base \
             formula is satisfiable)" )
      | Relations.CCW ->
          ( Encode.race_formula enc a b,
            "satisfiable iff A and B could have been concurrent" )
      | _ ->
          Api.errorf Api.Usage
            "relation %S has no single-formula SAT encoding (expected chb, \
             mhb, or ccw)"
            key
    in
    Format.printf "c eventorder encode %s: A = '%s' (event %d), B = '%s' \
                   (event %d)@."
      key a_label a b_label b;
    Format.printf "c %s@." semantics;
    Format.printf "%a" Dimacs.print f
  in
  let doc =
    "compile one per-pair ordering query to a DIMACS CNF instance"
  in
  Cmd.v
    (Cmd.info "encode" ~doc)
    Term.(const run $ program_file $ policy_arg $ max_events_arg $ query_arg)

let dot_cmd =
  let kind_arg =
    let doc =
      "What to render: 'execution' (program order + dependences), 'pinned' \
       (the observed schedule's pinned partial order), 'taskgraph' \
       (Emrath-Ghosh-Padua), or a relation name ('mhb', 'chb', 'mcw', \
       'ccw', 'mow', 'cow')."
    in
    Arg.(value & opt string "execution" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let run file policy kind max_events =
    cli @@ fun () ->
    select ();
    let trace = load_trace file policy in
    let x = Trace.to_execution trace in
    let ppf = Format.std_formatter in
    match String.lowercase_ascii kind with
    | "execution" -> Dot.execution ppf x
    | "pinned" ->
        Dot.pinned ppf (Skeleton.of_execution x) (Trace.schedule trace)
    | "taskgraph" -> Dot.task_graph ppf x (Egp.build x)
    | name -> (
        match Api.relation_of_string name with
        | Some relation ->
            guard trace max_events;
            let s = Relations.of_session (Session.of_execution x) in
            Dot.relation ppf (x, Relations.to_rel s relation, name)
        | None -> Api.errorf Api.Usage "unknown --kind %s" name)
  in
  let doc = "render executions, pinned orders, task graphs or relations as DOT" in
  Cmd.v
    (Cmd.info "dot" ~doc)
    Term.(const run $ program_file $ policy_arg $ kind_arg $ max_events_arg)

(* ------------------------------------------------------------------ *)
(* Generators, checks and demos                                       *)
(* ------------------------------------------------------------------ *)

let gen_cmd =
  let family_arg =
    let doc =
      "Trace family: 'pc_mesh' (producer/consumer lanes handing fresh \
       variables over fresh semaphores), 'server_logs' (workers \
       publishing to a collector via event variables), or 'fork_join' \
       (a forked tree with sibling races)."
    in
    Arg.(
      value
      & opt (enum (List.map (fun n ->
            (n, Option.get (Progen.big_family_of_string n)))
            Progen.big_family_names))
          Progen.Pc_mesh
      & info [ "family" ] ~docv:"FAMILY" ~doc)
  in
  let events_arg =
    let doc = "Number of events to emit (at least 64)." in
    Arg.(value & opt int 1_000_000 & info [ "events" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Deterministic seed for race placement." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let output_arg =
    let doc = "Output file (eotrace format, written streaming)." in
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run family events seed output =
    if events < 64 then
      die_error ~json:false "--events must be at least 64 (got %d)" events;
    let t = Progen.big_trace ~family ~events ~seed in
    Bigtrace.save output t;
    Format.printf "wrote %s: %d events (%s, seed %d)@." output
      (Bigtrace.n_events t)
      (Progen.big_family_to_string family)
      seed
  in
  let doc =
    "generate a large synthetic trace (eotrace format) from a named \
     family, sized for the streaming 'races --engine auto' path"
  in
  Cmd.v
    (Cmd.info "gen" ~doc)
    Term.(const run $ family_arg $ events_arg $ seed_arg $ output_arg)

let theorems_cmd =
  let formula_arg =
    let doc =
      "Formula: 'tiny-sat', 'tiny-unsat', or a path to a DIMACS file.  Keep \
       it small: deciding the reduction is exponential (that is the point)."
    in
    Arg.(value & opt string "tiny-unsat" & info [ "formula" ] ~docv:"F" ~doc)
  in
  let run formula_spec =
    cli @@ fun () ->
    select ();
    let formula =
      match formula_spec with
      | "tiny-sat" -> Sat_gen.tiny_sat_3cnf ()
      | "tiny-unsat" -> Sat_gen.tiny_unsat_3cnf ()
      | path -> load_dimacs path
    in
    let all = Theorems.check_all formula in
    List.iter (fun c -> Format.printf "%a@." Theorems.pp_check c) all;
    if List.for_all (fun c -> c.Theorems.agrees) all then
      print_endline "all theorem equivalences verified"
    else begin
      print_endline "THEOREM CHECK FAILED";
      exit 1
    end
  in
  let doc = "machine-check Theorems 1-4 on a formula" in
  Cmd.v (Cmd.info "theorems" ~doc) Term.(const run $ formula_arg)

let explore_cmd =
  let source_file =
    let doc =
      "Program source file (loop-free; saved traces are not accepted — \
       this analysis quantifies over the program, not a trace)."
    in
    Arg.(required & pos 0 (some non_dir_file) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    let program = parse_program_file file in
    match Explore.explore program with
    | exception Explore.Unsupported msg -> die_error ~json:false "%s" msg
    | stats ->
        let show_count c =
          if c >= Explore.count_saturation then ">= 10^18" else string_of_int c
        in
        Format.printf "completed executions:  %s@."
          (show_count stats.Explore.completed_paths);
        Format.printf "deadlocked executions: %s@."
          (show_count stats.Explore.deadlocked_paths);
        Format.printf "machine states:        %d@." stats.Explore.states;
        Format.printf "assertion violation reachable: %b@."
          (Explore.assert_can_fail program);
        let finals = Explore.final_stores program in
        Format.printf "reachable final stores (%d):@." (List.length finals);
        List.iter
          (fun bindings ->
            Format.printf "  %s@."
              (if bindings = [] then "(empty)"
               else
                 String.concat ", "
                   (List.map (fun (x, v) -> Printf.sprintf "%s=%d" x v) bindings)))
          finals
  in
  let doc =
    "explore ALL executions of a loop-free program (not just reorderings \
     of one trace): counts, deadlocks, reachable final stores"
  in
  Cmd.v (Cmd.info "explore" ~doc) Term.(const run $ source_file)

let record_cmd =
  let output_arg =
    let doc = "Output path for the recorded trace." in
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc)
  in
  let run file policy output =
    let trace = load_trace file policy in
    Trace_io.save output trace;
    Format.printf "recorded %d events to %s@." (Trace.n_events trace) output
  in
  let doc = "run a program and save the observed execution as a trace file" in
  Cmd.v
    (Cmd.info "record" ~doc)
    Term.(const run $ program_file $ policy_arg $ output_arg)

let fuzz_cmd =
  let count_arg =
    let doc = "Number of random programs to check." in
    Arg.(value & opt int 100 & info [ "count" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Base random seed." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let binary_arg =
    let doc = "Generate binary semaphores instead of counting ones." in
    Arg.(value & flag & info [ "binary" ] ~doc)
  in
  let run count seed binary =
    cli @@ fun () ->
    select ();
    let cfg = { Progen.default_config with Progen.binary_semaphores = binary } in
    let failures = ref 0 in
    let checked = ref 0 in
    for i = 0 to count - 1 do
      let trace = Progen.generate_completing cfg ~seed:(seed + (i * 7919)) in
      let x = Trace.to_execution trace in
      let fail fmt =
        Format.kasprintf
          (fun msg ->
            incr failures;
            Format.printf "FAILURE (seed %d): %s@.%a@." (seed + (i * 7919)) msg
              Trace.pp trace)
          fmt
      in
      (* 1. The observed execution satisfies the model axioms. *)
      (match Execution.axiom_violations x with
      | [] -> ()
      | errs -> fail "axioms: %s" (String.concat "; " errs));
      (* 2. The trace serialization round-trips. *)
      if Trace_io.of_string (Trace_io.to_string trace) <> trace then
        fail "trace serialization does not round-trip";
      if Trace.n_events trace <= 8 then begin
        incr checked;
        let sk = Skeleton.of_execution x in
        let r = Reach.create sk in
        (* 3. Enumeration and the state engine agree on |F(P)|. *)
        let by_enum = Enumerate.count sk in
        let by_dp = Reach.schedule_count r in
        if by_enum <> by_dp then
          fail "schedule counts disagree: enumerate %d, reach %d" by_enum by_dp;
        (* 4. Every enumerated schedule passes the independent oracle. *)
        if not (List.for_all (Replay.is_feasible sk) (Enumerate.all sk)) then
          fail "an enumerated schedule fails the replay oracle";
        (* 5. Pairwise engine agreement and the MHB/CHB duality. *)
        let n = sk.Skeleton.n in
        for a = 0 to n - 1 do
          for b = 0 to n - 1 do
            if Reach.exists_before r a b <> Enumerate.exists_order sk ~before:a ~after:b
            then fail "exists_before disagrees on (%d, %d)" a b;
            if a <> b && Reach.must_before r a b <> not (Reach.exists_before r b a)
            then fail "MHB/CHB duality violated on (%d, %d)" a b
          done
        done
      end
    done;
    Format.printf "fuzz: %d programs, %d exhaustively cross-checked, %d failures@."
      count !checked !failures;
    if !failures > 0 then exit 1
  in
  let doc =
    "differential testing: generate random programs and cross-check the \
     enumeration engine, the state engine and the replay oracle"
  in
  Cmd.v (Cmd.info "fuzz" ~doc) Term.(const run $ count_arg $ seed_arg $ binary_arg)

let figure1_cmd =
  let run () =
    cli @@ fun () ->
    select ();
    Format.printf "%s@.@." Figure1.source;
    let tr = Figure1.trace () in
    Format.printf "%a@." Trace.pp tr;
    let x = Trace.to_execution tr in
    let ev = Figure1.events tr in
    let egp = Egp.build x in
    let d = Decide.create x in
    let show name a b =
      Format.printf "%-20s exact MHB: %-5b   task graph claims: %b@." name
        (Decide.holds d Relations.MHB a b)
        (Egp.guaranteed_before egp a b)
    in
    show "post1 -> post2" ev.Figure1.post1 ev.Figure1.post2;
    show "post1 -> wait3" ev.Figure1.post1 ev.Figure1.wait3;
    show "write_x -> post2" ev.Figure1.write_x ev.Figure1.post2
  in
  let doc = "reproduce the paper's Figure 1 task-graph discrepancy" in
  Cmd.v (Cmd.info "figure1" ~doc) Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* serve and client                                                   *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  let doc = "Listen on (serve) / connect to (client) this Unix-domain socket." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let host_arg =
  let doc = "TCP host to bind (serve) or connect to (client); used with --port." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let port_arg =
  let doc = "TCP port; mutually exclusive with --socket." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let endpoint_of ?(json = false) socket port host =
  match (socket, port) with
  | Some path, None -> `Unix path
  | None, Some p -> `Tcp (host, p)
  | Some _, Some _ -> die_error ~json "--socket and --port are mutually exclusive"
  | None, None -> die_error ~json "an endpoint is required: --socket PATH or --port N"

let serve_cmd =
  let workers_arg =
    let doc =
      "Worker domains answering analysis requests concurrently.  Control \
       requests (stats, ping, shutdown) bypass the workers and stay \
       responsive under load."
    in
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let max_queue_arg =
    let doc =
      "Analysis requests allowed to wait for a worker; beyond this the \
       server answers eventorder.error/1 with code 'overload' instead of \
       hanging the client.  0 rejects every analysis request."
    in
    Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let max_memory_arg =
    let doc =
      "Refuse new analysis requests while the live heap exceeds this many \
       MiB (admission control; running requests are never killed)."
    in
    Arg.(value & opt (some int) None & info [ "max-memory" ] ~docv:"MIB" ~doc)
  in
  let run socket host port workers max_queue max_memory limit timeout
      max_events jobs engine model cache =
    cli @@ fun () ->
    (* The flags are per-request defaults, not a process-global set:
       each request resolves request > flag > environment. *)
    let api =
      Api.config_of_flags ?engine ?model ?jobs ?limit ?timeout_ms:timeout
        ?cache ~max_events ()
    in
    if workers < 1 then die_error ~json:false "--workers must be at least 1";
    if max_queue < 0 then die_error ~json:false "--max-queue must be >= 0";
    let endpoint =
      match endpoint_of socket port host with
      | `Unix path -> Server.Unix_socket path
      | `Tcp (host, p) -> Server.Tcp (host, p)
    in
    Server.run
      {
        Server.endpoint;
        workers;
        max_queue;
        max_memory_mb = max_memory;
        api;
        log = true;
      }
  in
  let doc =
    "serve analysis requests to many clients over a socket (NDJSON; see \
     docs/PROTOCOL.md)"
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ workers_arg
      $ max_queue_arg $ max_memory_arg $ limit_arg $ timeout_arg
      $ max_events_arg $ jobs_arg $ engine_arg $ model_arg $ cache_arg)

let client_cmd =
  let op_arg =
    let doc = "Request op: 'batch' (run queries), 'stats', 'ping', or 'shutdown'." in
    Arg.(
      value
      & opt (enum [ ("batch", `Batch); ("stats", `Stats); ("ping", `Ping);
                    ("shutdown", `Shutdown) ]) `Batch
      & info [ "op" ] ~docv:"OP" ~doc)
  in
  let file_arg =
    let doc =
      "Program source file or saved *.eotrace to analyse (batch op only); \
       its text is shipped in the request."
    in
    Arg.(value & pos 0 (some non_dir_file) None & info [] ~docv:"FILE" ~doc)
  in
  let queries_arg =
    let doc = "Queries, as in the batch subcommand." in
    Arg.(value & pos_right 0 string [] & info [] ~docv:"QUERY" ~doc)
  in
  let retries_arg =
    let doc =
      "Connection attempts before giving up (50 ms apart) — lets a client \
       start concurrently with the server."
    in
    Arg.(value & opt int 40 & info [ "connect-retries" ] ~docv:"N" ~doc)
  in
  let run socket host port op file engine model limit timeout jobs collect
      policy retries queries =
    let json = true in
    let request =
      match op with
      | `Stats -> [ ("op", Jsonout.Str "stats") ]
      | `Ping -> [ ("op", Jsonout.Str "ping") ]
      | `Shutdown -> [ ("op", Jsonout.Str "shutdown") ]
      | `Batch ->
          let file =
            match file with
            | Some f -> f
            | None -> die_error ~json "the batch op needs a FILE to analyse"
          in
          if queries = [] then
            die_error ~json "the batch op needs at least one QUERY";
          let text =
            In_channel.with_open_bin file In_channel.input_all
          in
          let opt k f = function Some v -> [ (k, f v) ] | None -> [] in
          let str s = Jsonout.Str s and int i = Jsonout.Int i in
          [ ("op", str "batch") ]
          @ (if Filename.check_suffix file ".eotrace" then
               [ ("trace", str text) ]
             else [ ("program", str text) ])
          @ [ ("queries", Jsonout.List (List.map str queries)) ]
          @ (match policy with
            | Sched.Round_robin -> []
            | p -> [ ("policy", str (Api.policy_to_string p)) ])
          (* Engine and model are shipped raw: the server validates them
             and answers eventorder.error/1 on drift. *)
          @ opt "engine" str engine
          @ opt "model" str model
          @ opt "limit" int limit
          @ opt "timeout_ms" int timeout
          @ opt "jobs" int jobs
          @ if collect then [ ("stats", Jsonout.Bool true) ] else []
    in
    let request =
      Jsonout.Obj (("schema", Jsonout.Str Api.request_schema) :: request)
    in
    let domain, addr =
      match endpoint_of ~json socket port host with
      | `Unix path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
      | `Tcp (host, p) ->
          let ip =
            try (Unix.gethostbyname host).Unix.h_addr_list.(0)
            with Not_found -> (
              try Unix.inet_addr_of_string host
              with Failure _ -> die_error ~json "cannot resolve host %S" host)
          in
          (Unix.PF_INET, Unix.ADDR_INET (ip, p))
    in
    (* Retry the connect so a client racing the server's startup (as the
       tests do) settles instead of flaking. *)
    let rec connect tries =
      let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
      match Unix.connect fd addr with
      | () -> fd
      | exception
          Unix.Unix_error ((ECONNREFUSED | ENOENT | ECONNRESET), _, _)
        when tries > 0 ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Unix.sleepf 0.05;
          connect (tries - 1)
      | exception Unix.Unix_error (e, _, _) ->
          die_error ~json "cannot connect: %s" (Unix.error_message e)
    in
    let fd = connect retries in
    let line = Jsonout.to_line request in
    let off = ref 0 in
    while !off < String.length line do
      off := !off + Unix.write_substring fd line !off (String.length line - !off)
    done;
    let buf = Buffer.create 4096 in
    let chunk = Bytes.create 4096 in
    let response =
      let rec read_line () =
        match String.index_opt (Buffer.contents buf) '\n' with
        | Some i -> String.sub (Buffer.contents buf) 0 i
        | None -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 ->
                die_error ~json
                  "the server closed the connection without a response"
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                read_line ()
            | exception Unix.Unix_error (EINTR, _, _) -> read_line ())
      in
      read_line ()
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    match Jsonin.parse response with
    | Error msg ->
        die_error ~json:false "malformed response from the server: %s" msg
    | Ok doc ->
        print_json doc;
        (* Exit contract mirrors the CLI: 2 for error/1 responses, the
           internal code included (3 when the error itself is the
           deadline), 3 for a partial (status "timeout") analysis, 0
           otherwise. *)
        let field k =
          match doc with
          | Jsonout.Obj fields -> List.assoc_opt k fields
          | _ -> None
        in
        let code =
          match field "schema" with
          | Some (Jsonout.Str schema) when schema = Api.error_schema -> (
              match field "code" with
              | Some (Jsonout.Str "timeout") -> 3
              | _ -> 2)
          | _ -> (
              match field "status" with
              | Some (Jsonout.Str "timeout") -> 3
              | _ -> 0)
        in
        exit code
  in
  let doc =
    "send one request to a running 'eventorder serve' daemon and print \
     the response"
  in
  Cmd.v
    (Cmd.info "client" ~doc)
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ op_arg $ file_arg
      $ engine_arg $ model_arg $ limit_arg $ timeout_arg $ jobs_arg
      $ stats_arg $ policy_arg $ retries_arg $ queries_arg)

let () =
  let doc =
    "event orderings of shared-memory parallel program executions \
     (Netzer-Miller, 1990)"
  in
  let info = Cmd.info "eventorder" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            analyze_cmd; batch_cmd; schedules_cmd; races_cmd; gen_cmd;
            encode_cmd; consistent_cmd;
            taskgraph_cmd; reduce_cmd; theorems_cmd; figure1_cmd; record_cmd;
            dot_cmd; fuzz_cmd; order_cmd; report_cmd; explore_cmd; serve_cmd;
            client_cmd;
          ]))
