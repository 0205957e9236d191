(* The class-level summary that answers [relations]: its one reachability
   pass against the per-pair engine, and the whole record against the
   naive engine's full enumeration of F(P), the independent reference.

   Programs have at most 12 events and come from both generators (the
   hand-picked statements of [Gen_progs]; [Progen] draws with counting or
   binary semaphores and Post/Wait/Clear), under sc, tso and pso.  Runs
   that deadlock are kept: their executions are the events that ran, with
   stuck states in reach.  A quarter of the skeletons are starved — every
   semaphore starts at 0 and every event variable cleared — which often
   leaves F(P) empty. *)

let qcheck = QCheck_alcotest.to_alcotest

type case = { prog : Ast.t; model : Memmodel.t; starved : bool }

let progen_config binary =
  {
    Progen.default_config with
    Progen.processes = (2, 3);
    stmts_per_process = (1, 4);
    binary_semaphores = binary;
  }

let case_gen =
  QCheck.Gen.(
    oneof
      [
        Gen_progs.program_gen;
        ( bool >>= fun binary ->
          int_bound 1_000_000 >>= fun seed ->
          return (Progen.generate (progen_config binary) ~seed) );
      ]
    >>= fun prog ->
    oneofl Memmodel.all >>= fun model ->
    frequency [ (3, return false); (1, return true) ] >>= fun starved ->
    return { prog; model; starved })

let print_case c =
  Printf.sprintf "model %s%s\n%s" (Memmodel.to_string c.model)
    (if c.starved then ", starved" else "")
    (Gen_progs.print_program c.prog)

let arbitrary_case = QCheck.make ~print:print_case case_gen

let with_engine engine f =
  let saved = Engine.current () in
  Engine.set engine;
  Fun.protect ~finally:(fun () -> Engine.set saved) f

let with_model model f =
  let saved = Memmodel.current () in
  Memmodel.set model;
  Fun.protect ~finally:(fun () -> Memmodel.set saved) f

let skeleton_of c =
  let tr = Interp.run c.prog in
  let n = Trace.n_events tr in
  if n < 1 || n > 12 then None
  else
    let sk =
      with_model c.model (fun () -> Skeleton.of_execution (Trace.to_execution tr))
    in
    Some
      (if c.starved then
         {
           sk with
           Skeleton.sem_init = Array.map (fun _ -> 0) sk.Skeleton.sem_init;
           ev_init = Array.map (fun _ -> false) sk.Skeleton.ev_init;
         }
       else sk)

let forall_case c f =
  match skeleton_of c with
  | None -> QCheck.assume_fail ()
  | Some sk -> f sk

let reference sk =
  with_engine Engine.Naive (fun () -> Relations.compute_enumerated sk)

let rel_pairs s rel = Rel.to_pairs (Relations.to_rel s rel)

let same_summary name (want : Relations.t) (got : Relations.t) =
  if got.Relations.feasible_count <> want.Relations.feasible_count then
    QCheck.Test.fail_reportf "%s: feasible_count %d, want %d" name
      got.Relations.feasible_count want.Relations.feasible_count;
  if got.Relations.distinct_classes <> want.Relations.distinct_classes then
    QCheck.Test.fail_reportf "%s: distinct_classes %d, want %d" name
      got.Relations.distinct_classes want.Relations.distinct_classes;
  if got.Relations.truncated <> want.Relations.truncated then
    QCheck.Test.fail_reportf "%s: truncated %b, want %b" name
      got.Relations.truncated want.Relations.truncated;
  List.iter
    (fun rel ->
      if rel_pairs got rel <> rel_pairs want rel then
        QCheck.Test.fail_reportf "%s: %s matrix differs" name
          (Relations.relation_name rel))
    Relations.all_relations

let counter tel key = Counters.get (Telemetry.counters tel) key

(* (a) The pass's before-some matrix is the n² [exists_before] matrix and
   its count the counting DP's — also when the engine's memo tables are
   already warm from a count and from per-pair queries. *)
let prop_one_pass =
  QCheck.Test.make
    ~name:"one pass: before-some = n² exists_before, count = schedule_count"
    ~count:300 arbitrary_case (fun c ->
      forall_case c @@ fun sk ->
      let n = sk.Skeleton.n in
      let r = Reach.create sk in
      let expected = Rel.create n in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if Reach.exists_before r a b then Rel.add expected a b
        done
      done;
      let count = Reach.schedule_count r in
      let cold = Rel.create n in
      let cold_count = Reach.count_and_before (Reach.create sk) cold in
      (* [r] now holds a full count memo and can-complete memo. *)
      let warm = Rel.create n in
      let warm_count = Reach.count_and_before r warm in
      if not (Rel.equal cold expected) then
        QCheck.Test.fail_report "cold pass: before-some differs";
      if not (Rel.equal warm expected) then
        QCheck.Test.fail_report "warm pass: before-some differs";
      cold_count = count && warm_count = count)

(* (b) [relations] under every engine but the reference, at 1 and 2
   jobs: the naive full enumeration's record, without enumerating. *)
let prop_relations_match_reference =
  QCheck.Test.make
    ~name:"relations under packed, sat, auto x jobs 1, 2 = naive enumeration"
    ~count:80 arbitrary_case (fun c ->
      forall_case c @@ fun sk ->
      let want = reference sk in
      List.iter
        (fun engine ->
          with_engine engine @@ fun () ->
          List.iter
            (fun jobs ->
              let name =
                Printf.sprintf "%s/jobs=%d" (Engine.to_string engine) jobs
              in
              let tel = Telemetry.create () in
              let session =
                Session.create ~jobs ~stats:tel ~cache:Session.no_cache sk
              in
              if engine = Engine.Auto then Triage.attach session;
              same_summary name want (Relations.of_session session);
              if counter tel Counters.Enum_nodes <> 0 then
                QCheck.Test.fail_reportf "%s: relations enumerated" name)
            [ 1; 2 ])
        [ Engine.Packed; Engine.Sat; Engine.Auto ];
      true)

(* (c) A count first (what [schedules] and [report] run) leaves the
   summary unchanged: the pass does not trust the warm count memo. *)
let prop_count_then_relations =
  QCheck.Test.make ~name:"schedule count then relations = relations alone"
    ~count:150 arbitrary_case (fun c ->
      forall_case c @@ fun sk ->
      List.iter
        (fun engine ->
          with_engine engine @@ fun () ->
          let alone =
            Relations.of_session (Session.create ~cache:Session.no_cache sk)
          in
          let session = Session.create ~cache:Session.no_cache sk in
          let count = Session.schedule_count session in
          let r = Reach.schedule_count (Session.reach session) in
          let after = Relations.of_session session in
          let name = Engine.to_string engine in
          same_summary name alone after;
          if count <> alone.Relations.feasible_count || r <> count then
            QCheck.Test.fail_reportf "%s: count %d then %d, summary %d" name
              count r alone.Relations.feasible_count)
        [ Engine.Packed; Engine.Sat; Engine.Auto ];
      true)

let is_must = function
  | Relations.MHB | Relations.MOW | Relations.MCW -> true
  | Relations.CHB | Relations.COW | Relations.CCW -> false

(* (d) A budget that runs out leaves a sound answer that says so: could-
   have relations only lose pairs, must-have relations only gain them,
   the count never overshoots, and [truncated] is set. *)
let prop_starved_budget =
  QCheck.Test.make
    ~name:"starved budgets: relations sound and truncated" ~count:60
    arbitrary_case (fun c ->
      forall_case c @@ fun sk ->
      let want = reference sk in
      let n = sk.Skeleton.n in
      List.iter
        (fun engine ->
          with_engine engine @@ fun () ->
          List.iter
            (fun (jobs, node_budget) ->
              let name =
                Printf.sprintf "%s/jobs=%d/nodes=%d" (Engine.to_string engine)
                  jobs node_budget
              in
              let budget = Budget.create ~node_budget () in
              let session =
                Session.create ~jobs ~budget ~cache:Session.no_cache sk
              in
              match Relations.of_session_outcome session with
              | Budget.Exact got ->
                  if Budget.exhausted budget then
                    QCheck.Test.fail_reportf "%s: expired but exact" name;
                  same_summary name want got
              | Budget.Bound_hit got ->
                  if not got.Relations.truncated then
                    QCheck.Test.fail_reportf "%s: not marked truncated" name;
                  if got.Relations.feasible_count > want.Relations.feasible_count
                  then QCheck.Test.fail_reportf "%s: count overshoots" name;
                  for a = 0 to n - 1 do
                    for b = 0 to n - 1 do
                      List.iter
                        (fun rel ->
                          let w = Relations.holds want rel a b in
                          let g = Relations.holds got rel a b in
                          if (if is_must rel then w && not g else g && not w)
                          then
                            QCheck.Test.fail_reportf "%s: %s unsound on (%d,%d)"
                              name (Relations.relation_name rel) a b)
                        Relations.all_relations
                    done
                  done)
            [ (1, 1); (2, 1); (1, 4); (2, 16) ])
        [ Engine.Packed; Engine.Sat; Engine.Auto ];
      true)

let pipeline =
  "sem s = 0\n\
   proc producer { x := 1; v(s); z := 2 }\n\
   proc consumer { p(s); y := x }\n\
   proc bystander { w := 3 }"

(* Enumeration is the reference's business: [relations] walks F(P) only
   under a limit or the naive engine; [reduced] never does. *)
let test_enumerates_only_when_needed () =
  let sk =
    match Gen_progs.completed_trace (Parse.program pipeline) with
    | Some t -> Skeleton.of_execution (Trace.to_execution t)
    | None -> Alcotest.fail "fixture deadlocked"
  in
  let enum_nodes ?limit engine query =
    with_engine engine @@ fun () ->
    let tel = Telemetry.create () in
    let session = Session.create ?limit ~stats:tel ~cache:Session.no_cache sk in
    ignore (query session : Relations.t);
    counter tel Counters.Enum_nodes
  in
  let check name want got =
    Alcotest.(check bool) name want (got > 0)
  in
  List.iter
    (fun engine ->
      let e = Engine.to_string engine in
      check (e ^ " relations") false (enum_nodes engine Relations.of_session);
      check (e ^ " relations --limit") true
        (enum_nodes ~limit:1000 engine Relations.of_session);
      check (e ^ " reduced") false
        (enum_nodes engine Relations.of_session_reduced))
    [ Engine.Packed; Engine.Sat; Engine.Auto ];
  check "naive relations" true (enum_nodes Engine.Naive Relations.of_session);
  check "naive reduced" false
    (enum_nodes Engine.Naive Relations.of_session_reduced)

(* (e) [to_rel] builds each matrix a row at a time; it must be [holds]
   at every pair, on exact and on budget-truncated summaries alike. *)
let prop_to_rel_is_holds =
  QCheck.Test.make ~name:"to_rel = holds at every pair" ~count:150
    arbitrary_case (fun c ->
      forall_case c @@ fun sk ->
      let n = sk.Skeleton.n in
      let starved =
        Relations.of_session
          (Session.create
             ~budget:(Budget.create ~node_budget:1 ())
             ~cache:Session.no_cache sk)
      in
      List.iter
        (fun s ->
          List.iter
            (fun rel ->
              let m = Relations.to_rel s rel in
              for a = 0 to n - 1 do
                for b = 0 to n - 1 do
                  if Rel.mem m a b <> Relations.holds s rel a b then
                    QCheck.Test.fail_reportf "%s at (%d,%d)"
                      (Relations.relation_name rel) a b
                done
              done)
            Relations.all_relations)
        [ reference sk; starved ];
      true)

(* The counters a per-pair query spends climbing a ladder. *)
let ladder_keys =
  Counters.
    [
      Reach_queries;
      Encoder_clauses;
      Triage_approx_hits;
      Triage_reach_hits;
      Triage_sat_hits;
      Triage_enum_hits;
    ]

let pair_relations = [ Relations.MHB; Relations.CHB ]

(* (f) A session that answered [relations] reads MHB and CHB off the
   exact summary it holds: the answers of a fresh session's ladder, no
   ladder climbed, each answer still counted under its model. *)
let check_pairs_from_summary sk engine jobs =
  with_engine engine @@ fun () ->
  let n = sk.Skeleton.n in
  let name =
    Printf.sprintf "%s/%s/jobs=%d" (Engine.to_string engine)
      (Memmodel.to_string sk.Skeleton.model) jobs
  in
  let fresh =
    Decide.of_session (Session.create ~jobs ~cache:Session.no_cache sk)
  in
  let tel = Telemetry.create () in
  let session = Session.create ~jobs ~stats:tel ~cache:Session.no_cache sk in
  let d = Decide.of_session session in
  ignore (Relations.of_session session : Relations.t);
  let climbed = List.map (counter tel) ladder_keys in
  let model_key = Memmodel.counter_key sk.Skeleton.model in
  let answered = counter tel model_key in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      List.iter
        (fun rel ->
          if Decide.holds d rel a b <> Decide.holds fresh rel a b then
            QCheck.Test.fail_reportf "%s: %s differs at (%d,%d)" name
              (Relations.relation_name rel) a b)
        pair_relations
    done
  done;
  if List.map (counter tel) ladder_keys <> climbed then
    QCheck.Test.fail_reportf "%s: a pair climbed the ladder" name;
  (* CHB counts every pair, MHB all but the diagonal. *)
  if counter tel model_key - answered <> (n * n) + (n * (n - 1)) then
    QCheck.Test.fail_reportf "%s: %d model queries for %d events" name
      (counter tel model_key - answered)
      n

(* The case's program under every model, engine and job count. *)
let prop_pairs_from_summary =
  QCheck.Test.make
    ~name:
      "mhb/chb after relations = fresh session (packed, sat, auto x sc, tso, \
       pso x jobs 1, 2)"
    ~count:40 arbitrary_case (fun c ->
      List.iter
        (fun model ->
          forall_case { c with model } @@ fun sk ->
          List.iter
            (fun engine ->
              List.iter (check_pairs_from_summary sk engine) [ 1; 2 ])
            [ Engine.Packed; Engine.Sat; Engine.Auto ])
        Memmodel.all;
      true)

(* (g) A truncated summary — cut by the budget or by a limit — is never
   read: the pairs stay on the ladder and stay sound. *)
let prop_truncated_summary_unused =
  QCheck.Test.make ~name:"a truncated summary answers no pair" ~count:60
    arbitrary_case (fun c ->
      forall_case c @@ fun sk ->
      let want = reference sk in
      let n = sk.Skeleton.n in
      List.iter
        (fun engine ->
          with_engine engine @@ fun () ->
          List.iter
            (fun (make, summary) ->
              let session = make () in
              let d = Decide.of_session session in
              let s : Relations.t = summary session in
              let held = Session.from_summary session Fun.id <> None in
              if s.Relations.truncated && held then
                QCheck.Test.fail_reportf "%s: truncated summary in hand"
                  (Engine.to_string engine);
              for a = 0 to n - 1 do
                for b = 0 to n - 1 do
                  List.iter
                    (fun rel ->
                      match Decide.holds_outcome d rel a b with
                      | Budget.Exact v when v <> Relations.holds want rel a b ->
                          QCheck.Test.fail_reportf "%s: %s wrong at (%d,%d)"
                            (Engine.to_string engine)
                            (Relations.relation_name rel) a b
                      | Budget.Exact _ | Budget.Bound_hit _ -> ())
                    pair_relations
                done
              done)
            [
              ( (fun () ->
                  Session.create
                    ~budget:(Budget.create ~node_budget:1 ())
                    ~cache:Session.no_cache sk),
                Relations.of_session );
              ( (fun () -> Session.create ~limit:1 ~cache:Session.no_cache sk),
                Relations.of_session_reduced );
            ])
        [ Engine.Packed; Engine.Sat; Engine.Auto ];
      true)

let skeleton_of_source src =
  match Gen_progs.completed_trace (Parse.program src) with
  | Some t -> Skeleton.of_execution (Trace.to_execution t)
  | None -> Alcotest.fail "fixture deadlocked"

(* (h) The naive reference never reads a summary for a pair, whichever
   summaries its session holds. *)
let test_naive_keeps_its_ladder () =
  with_engine Engine.Naive @@ fun () ->
  let sk = skeleton_of_source pipeline in
  let tel = Telemetry.create () in
  let session = Session.create ~stats:tel ~cache:Session.no_cache sk in
  let d = Decide.of_session session in
  let want = Relations.of_session session in
  ignore (Relations.of_session_reduced session : Relations.t);
  Alcotest.(check bool) "no summary in hand" true
    (Session.from_summary session Fun.id = None);
  let asked = counter tel Counters.Reach_queries in
  List.iter
    (fun rel ->
      Alcotest.(check bool)
        (Relations.relation_name rel)
        (Relations.holds want rel 0 4)
        (Decide.holds d rel 0 4))
    pair_relations;
  Alcotest.(check int) "both pairs on the ladder" (asked + 2)
    (counter tel Counters.Reach_queries)

(* (i) Why CCW and MOW stay on the ladder: with Clear present the
   class-level incomparability and the operational race test disagree.
   Here Wait(e0) must run before Clear(e0) — the other order leaves the
   wait stuck for good — so no context runs them in both orders, yet
   their pinned orders leave them incomparable. *)
let clear_program =
  "sem s0 = 0\n\
   event e0 = set\n\
   proc p0 { x1 := (x0 + 1); wait(e0) }\n\
   proc p1 { x0 := (x1 + 1); clear(e0) }\n\
   proc p2 { x0 := (x1 + 1) }"

let test_clear_ccw_stays_on_ladder () =
  let sk = skeleton_of_source clear_program in
  let x = sk.Skeleton.execution in
  let id label =
    match
      Array.find_opt
        (fun e -> e.Event.label = label)
        x.Execution.events
    with
    | Some e -> e.Event.id
    | None -> Alcotest.failf "no event %s" label
  in
  let wait = id "Wait(e0)" and clear = id "Clear(e0)" in
  let session = Session.create ~cache:Session.no_cache sk in
  let d = Decide.of_session session in
  let summary = Relations.of_session session in
  Alcotest.(check bool) "summary: CCW by incomparability" true
    (Relations.holds summary Relations.CCW wait clear);
  Alcotest.(check bool) "ladder: no race" false
    (Session.exists_race session wait clear);
  Alcotest.(check bool) "CCW after relations is the ladder's" false
    (Decide.holds d Relations.CCW wait clear);
  Alcotest.(check bool) "MOW after relations is the ladder's" true
    (Decide.holds d Relations.MOW wait clear);
  Alcotest.(check bool) "MHB agrees either way" true
    (Decide.holds d Relations.MHB wait clear)

let suite =
  [
    qcheck prop_one_pass;
    qcheck prop_relations_match_reference;
    qcheck prop_count_then_relations;
    qcheck prop_starved_budget;
    Alcotest.test_case "relations enumerates only under a limit or naive"
      `Quick test_enumerates_only_when_needed;
    qcheck prop_to_rel_is_holds;
    qcheck prop_pairs_from_summary;
    qcheck prop_truncated_summary_unused;
    Alcotest.test_case "naive answers no pair from a summary" `Quick
      test_naive_keeps_its_ladder;
    Alcotest.test_case "with Clear, CCW and MOW stay on the ladder" `Quick
      test_clear_ccw_stays_on_ladder;
  ]
