(* The telemetry jobs-invariance contract, QCheck-enforced.

   Search counters are schedule-attributable: split probing is uncounted,
   the chosen split is re-walked counted, prefix replays are free, and
   per-worker counters merge in deterministic task order.  So every count
   below must be bit-identical between [jobs = 1] and [jobs = 4] — only
   the [Par_*] counters, the [Reach] memo statistics (per-worker engines
   have private memo tables) and wall-clock may differ.  For the per-pair
   race decisions even the memo statistics are invariant, because every
   pair builds fresh engines under any [jobs]. *)

let qcheck = QCheck_alcotest.to_alcotest

(* The jobs-invariant subset for the DFS-splitting entry points. *)
let invariant_keys =
  [
    Counters.Enum_nodes;
    Counters.Enum_pops;
    Counters.Enum_schedules;
    Counters.Limit_truncations;
    Counters.Por_nodes;
    Counters.Por_pops;
    Counters.Por_sleep_prunes;
    Counters.Por_indep_refinements;
    Counters.Por_reps;
    Counters.Classes;
    Counters.Reach_queries;
  ]

let counts keys tel =
  List.map (fun k -> Counters.get (Telemetry.counters tel) k) keys

let pp_counts keys tel =
  String.concat ", "
    (List.map2
       (fun k v -> Printf.sprintf "%s=%d" (Counters.key_name k) v)
       keys (counts keys tel))

let small_skeleton prog =
  match Gen_progs.completed_trace prog with
  | None -> None
  | Some tr ->
      if Trace.n_events tr > 8 then None
      else Some (Skeleton.of_execution (Trace.to_execution tr))

let check_invariant name keys run1 run4 =
  let t1 = Telemetry.create () and t4 = Telemetry.create () in
  let r1 = run1 t1 and r4 = run4 t4 in
  if counts keys t1 <> counts keys t4 then
    QCheck.Test.fail_reportf "%s counters differ:@.jobs=1: %s@.jobs=4: %s" name
      (pp_counts keys t1) (pp_counts keys t4);
  (r1, r4)

let summaries_equal (a : Relations.t) (b : Relations.t) =
  a.Relations.feasible_count = b.Relations.feasible_count
  && a.Relations.truncated = b.Relations.truncated
  && a.Relations.distinct_classes = b.Relations.distinct_classes
  && Rel.equal a.Relations.before_some b.Relations.before_some
  && Rel.equal a.Relations.comparable_some b.Relations.comparable_some
  && Rel.equal a.Relations.incomparable_some b.Relations.incomparable_some

let prop_compute_invariant =
  QCheck.Test.make ~name:"compute: counters bit-identical jobs=1 vs jobs=4"
    ~count:40 Gen_progs.arbitrary_program (fun prog ->
      match small_skeleton prog with
      | None -> true
      | Some sk ->
          let s1, s4 =
            check_invariant "compute" invariant_keys
              (fun tel -> Relations.compute_enumerated ~jobs:1 ~stats:tel sk)
              (fun tel -> Relations.compute_enumerated ~jobs:4 ~stats:tel sk)
          in
          summaries_equal s1 s4)

let prop_compute_reduced_invariant =
  QCheck.Test.make
    ~name:"compute_reduced: counters bit-identical jobs=1 vs jobs=4" ~count:40
    Gen_progs.arbitrary_program (fun prog ->
      match small_skeleton prog with
      | None -> true
      | Some sk ->
          let s1, s4 =
            check_invariant "compute_reduced" invariant_keys
              (fun tel -> Relations.compute_reduced ~jobs:1 ~stats:tel sk)
              (fun tel -> Relations.compute_reduced ~jobs:4 ~stats:tel sk)
          in
          summaries_equal s1 s4)

let prop_races_fully_invariant =
  QCheck.Test.make
    ~name:"feasible_races: ALL counters bit-identical jobs=1 vs jobs=4"
    ~count:40 Gen_progs.arbitrary_program (fun prog ->
      match Gen_progs.completed_trace prog with
      | None -> true
      | Some tr ->
          if Trace.n_events tr > 7 then true
          else
            let x = Trace.to_execution tr in
            let r1, r4 =
              check_invariant "feasible_races" Counters.all_keys
                (fun tel -> Race.feasible_races ~jobs:1 ~stats:tel x)
                (fun tel -> Race.feasible_races ~jobs:4 ~stats:tel x)
            in
            r1 = r4)

(* Enabling telemetry must not change any result (the zero-cost-when-
   disabled design would be worthless if instrumentation perturbed the
   search). *)
let prop_stats_do_not_perturb =
  QCheck.Test.make ~name:"collecting stats does not change the summary"
    ~count:40 Gen_progs.arbitrary_program (fun prog ->
      match small_skeleton prog with
      | None -> true
      | Some sk ->
          let tel = Telemetry.create () in
          summaries_equal (Relations.compute_enumerated sk)
            (Relations.compute_enumerated ~stats:tel sk)
          && summaries_equal
               (Relations.compute_reduced sk)
               (Relations.compute_reduced ~stats:tel sk))

(* The session layer keeps the contract: a session consumed by every
   kind of query reports bit-identical session/cache counters (and the
   invariant search counters) under any worker count. *)
let session_keys =
  [
    Counters.Session_queries;
    Counters.Session_passes;
    Counters.Cache_memory_hits;
    Counters.Cache_disk_hits;
    Counters.Cache_misses;
    Counters.Cache_stores;
  ]

let prop_session_invariant =
  QCheck.Test.make
    ~name:"session: counters bit-identical jobs=1 vs jobs=4" ~count:30
    Gen_progs.arbitrary_program (fun prog ->
      match small_skeleton prog with
      | None -> true
      | Some sk ->
          let use jobs tel =
            let s =
              Session.create ~jobs ~stats:tel ~cache:Session.no_cache sk
            in
            (Relations.of_session s, Relations.of_session_reduced s)
          in
          let (a1, b1), (a4, b4) =
            check_invariant "session" (invariant_keys @ session_keys) (use 1)
              (use 4)
          in
          summaries_equal a1 a4 && summaries_equal b1 b4)

(* Deterministic spot check on a fixture with real parallel structure:
   four independent processes give the splitter something to split. *)
let test_parallel_split_counters () =
  let prog =
    Parse.program
      "proc a { x := 1 }\nproc b { y := 1 }\nproc c { z := 1 }\nproc d { w := 1 }"
  in
  match Gen_progs.completed_trace prog with
  | None -> Alcotest.fail "fixture deadlocked"
  | Some tr ->
      let sk = Skeleton.of_execution (Trace.to_execution tr) in
      let t1 = Telemetry.create () and t4 = Telemetry.create () in
      let s1 = Relations.compute_enumerated ~jobs:1 ~stats:t1 sk in
      let s4 = Relations.compute_enumerated ~jobs:4 ~stats:t4 sk in
      Alcotest.(check bool) "same summary" true (summaries_equal s1 s4);
      Alcotest.(check (list int)) "invariant counters"
        (counts invariant_keys t1) (counts invariant_keys t4);
      Alcotest.(check int) "24 schedules" 24
        (Counters.get (Telemetry.counters t1) Counters.Enum_schedules);
      Alcotest.(check bool) "jobs=4 spawned tasks" true
        (Counters.get (Telemetry.counters t4) Counters.Par_tasks > 0);
      Alcotest.(check bool) "split depth recorded" true
        (Telemetry.split_depth t4 >= 0);
      Alcotest.(check int) "task sizes sum to schedule count"
        (Counters.get (Telemetry.counters t4) Counters.Enum_schedules)
        (Array.fold_left ( + ) 0 (Telemetry.task_schedules t4));
      Alcotest.(check int) "jobs=1 spawned none" 0
        (Counters.get (Telemetry.counters t1) Counters.Par_tasks)

let suite =
  [
    qcheck prop_compute_invariant;
    qcheck prop_compute_reduced_invariant;
    qcheck prop_races_fully_invariant;
    qcheck prop_stats_do_not_perturb;
    qcheck prop_session_invariant;
    Alcotest.test_case "parallel split fixture" `Quick
      test_parallel_split_counters;
  ]
