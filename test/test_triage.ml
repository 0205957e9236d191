(* The tiered triage pipeline behind [--engine auto]: differential tests
   against the exact engines, soundness of every [Approx] decider in its
   advertised direction, the streaming trace reader, the columnar
   big-trace representation, and the budget-slicing contract (a defeated
   tier escalates and never changes the answer; a dead session budget
   degrades in the sound direction). *)

let qcheck = QCheck_alcotest.to_alcotest

let with_engine e f =
  let saved = Engine.current () in
  Engine.set e;
  Fun.protect ~finally:(fun () -> Engine.set saved) f

(* The triage slices are read from the environment on every query, so a
   test can shrink a tier just for its own duration. *)
let with_env var value f =
  let saved = Sys.getenv_opt var in
  Unix.putenv var value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv var (Option.value saved ~default:""))
    f

let small_execution prog =
  match Gen_progs.completed_trace prog with
  | None -> None
  | Some tr ->
      if Trace.n_events tr > 8 then None else Some (Trace.to_execution tr)

let fresh_session x = Session.of_execution ~cache:Session.no_cache x

(* ------------------------------------------------------------------ *)
(* Differential: the auto ladder answers every session primitive exactly
   as the seed engine does, on every generated program. *)

let session_answers engine x =
  with_engine engine (fun () ->
      let s = fresh_session x in
      if engine = Engine.Auto then Triage.attach s;
      let n = (Session.skeleton s).Skeleton.n in
      let pairs = ref [] in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          pairs :=
            ( Session.exists_before s a b,
              Session.must_before s a b,
              Session.exists_race s a b )
            :: !pairs
        done
      done;
      (Session.feasible_exists s, List.rev !pairs))

let prop_auto_matches_naive_sessions =
  QCheck.Test.make ~name:"auto ≡ naive on all session primitives" ~count:80
    Gen_progs.arbitrary_program (fun prog ->
      match small_execution prog with
      | None -> true
      | Some x -> session_answers Engine.Auto x = session_answers Engine.Naive x)

let relation_matrix engine x =
  with_engine engine (fun () ->
      let s = fresh_session x in
      let d = Decide.of_session s in
      let n = (Session.skeleton s).Skeleton.n in
      List.map
        (fun r ->
          let m = ref [] in
          for a = 0 to n - 1 do
            for b = 0 to n - 1 do
              m := Decide.holds d r a b :: !m
            done
          done;
          (r, !m))
        Relations.all_relations)

let prop_auto_matches_packed_relations =
  QCheck.Test.make ~name:"auto ≡ packed on all six paper relations"
    ~count:60 Gen_progs.arbitrary_program (fun prog ->
      match small_execution prog with
      | None -> true
      | Some x -> relation_matrix Engine.Auto x = relation_matrix Engine.Packed x)

let race_set engine ~jobs x =
  with_engine engine (fun () -> Race.feasible_races ~jobs x)

let prop_auto_matches_race_sets =
  QCheck.Test.make ~name:"auto ≡ reach on feasible race sets (jobs 1 and 2)"
    ~count:60 Gen_progs.arbitrary_program (fun prog ->
      match small_execution prog with
      | None -> true
      | Some x ->
          let reference = race_set Engine.Packed ~jobs:1 x in
          race_set Engine.Auto ~jobs:1 x = reference
          && race_set Engine.Auto ~jobs:2 x = reference)

let prop_auto_matches_sat_relations =
  QCheck.Test.make ~name:"auto ≡ sat on exists_before/must_before" ~count:40
    Gen_progs.arbitrary_program (fun prog ->
      match small_execution prog with
      | None -> true
      | Some x ->
          let answers engine =
            with_engine engine (fun () ->
                let s = fresh_session x in
                if engine = Engine.Auto then Triage.attach s;
                let n = (Session.skeleton s).Skeleton.n in
                let m = ref [] in
                for a = 0 to n - 1 do
                  for b = 0 to n - 1 do
                    m :=
                      (Session.exists_before s a b, Session.must_before s a b)
                      :: !m
                  done
                done;
                !m)
          in
          answers Engine.Auto = answers Engine.Sat)

(* ------------------------------------------------------------------ *)
(* Decider soundness: each [Approx] device's conclusive verdicts agree
   with the exact engine in the direction it advertises. *)

let exact_mhb x =
  with_engine Engine.Packed (fun () ->
      let d = Decide.of_session (fresh_session x) in
      fun a b -> Decide.holds d Relations.MHB a b)

let exact_chb x =
  with_engine Engine.Packed (fun () ->
      let d = Decide.of_session (fresh_session x) in
      fun a b -> Decide.holds d Relations.CHB a b)

let check_decider ~exact decider n =
  let ok = ref true in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      (match decider.Approx.decide a b with
      | Approx.Proved -> if not (exact a b) then ok := false
      | Approx.Refuted -> if exact a b then ok := false
      | Approx.Unknown -> ())
    done
  done;
  !ok

let prop_mhb_deciders_sound =
  QCheck.Test.make
    ~name:"order_clock/egp/hmw mhb deciders are sound vs the exact engine"
    ~count:60 Gen_progs.arbitrary_program (fun prog ->
      match small_execution prog with
      | None -> true
      | Some x ->
          let sk = Skeleton.of_execution x in
          let mhb = exact_mhb x in
          let n = sk.Skeleton.n in
          let clock_ok =
            match Order_clock.of_skeleton sk with
            | None -> true
            | Some c -> check_decider ~exact:mhb (Order_clock.mhb_decider c) n
          in
          let egp_ok =
            match Egp.build x with
            | exception _ -> true
            | e -> check_decider ~exact:mhb (Egp.mhb_decider e) n
          in
          let hmw_ok =
            check_decider ~exact:mhb (Hmw.mhb_decider (Hmw.of_execution x)) n
          in
          clock_ok && egp_ok && hmw_ok)

let prop_vclock_chb_decider_sound =
  QCheck.Test.make ~name:"vclock chb decider is sound vs the exact engine"
    ~count:60 Gen_progs.arbitrary_program (fun prog ->
      match small_execution prog with
      | None -> true
      | Some x ->
          let chb = exact_chb x in
          check_decider ~exact:chb
            (Vclock.chb_decider (Vclock.of_execution x))
            (Array.length x.Execution.events))

let prop_lamport_refuter_sound =
  QCheck.Test.make
    ~name:"lamport refuter is sound vs the observed happened-before"
    ~count:80 Gen_progs.arbitrary_program (fun prog ->
      match small_execution prog with
      | None -> true
      | Some x ->
          let vc = Vclock.of_execution x in
          check_decider
            ~exact:(fun a b -> Vclock.hb vc a b)
            (Lamport.observed_hb_refuter (Lamport.of_execution x))
            (Array.length x.Execution.events))

let prop_static_order_decider_sound =
  QCheck.Test.make
    ~name:"static_order mhb decider is sound vs the exact engine" ~count:40
    Gen_progs.arbitrary_program (fun prog ->
      match Gen_progs.completed_trace prog with
      | None -> true
      | Some tr ->
          if Trace.n_events tr > 8 then true
          else
            match Static_order.analyze prog with
            | exception _ -> true (* outside the analysed fragment *)
            | so ->
                let x = Trace.to_execution tr in
                check_decider ~exact:(exact_mhb x)
                  (Static_order.mhb_decider so tr)
                  (Array.length x.Execution.events))

let test_make_clamps_direction () =
  let d =
    Approx.make ~name:"test" ~relation:"mhb" ~direction:Approx.Positive
      (fun _ _ -> Approx.Refuted)
  in
  Alcotest.(check string)
    "Refuted from a Positive-only device clamps to Unknown" "unknown"
    (Approx.verdict_name (d.Approx.decide 0 1))

(* ------------------------------------------------------------------ *)
(* Streaming reader: [Trace_io.load] is [of_string] with file-sized
   memory, same answers and same error/line-number contract. *)

let with_temp_file content f =
  let path = Filename.temp_file "eo_triage_test" ".eotrace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      f path)

let traces_equal a b =
  a.Trace.events = b.Trace.events
  && Rel.equal a.Trace.program_order b.Trace.program_order
  && a.Trace.outcome = b.Trace.outcome
  && a.Trace.final_store = b.Trace.final_store

let prop_load_matches_of_string =
  QCheck.Test.make ~name:"Trace_io.load ≡ of_string on generated traces"
    ~count:60 Gen_progs.arbitrary_program (fun prog ->
      match Gen_progs.completed_trace prog with
      | None -> true
      | Some tr ->
          let text = Trace_io.to_string tr in
          with_temp_file text (fun path ->
              traces_equal (Trace_io.load path) (Trace_io.of_string text)))

let error_message f = match f () with
  | exception Failure m -> m
  | _ -> "no error"

let test_load_error_line_numbers () =
  (* A malformed line deep in the file is reported with the same
     line-numbered message by both readers. *)
  let tr = Interp.run (Parse.program "proc a { x := 1 }\nproc b { y := x }") in
  let good = Trace_io.to_string tr in
  let broken = good ^ "event bogus\n" in
  let lineno = List.length (String.split_on_char '\n' good) in
  let from_string = error_message (fun () -> Trace_io.of_string broken) in
  let from_file =
    with_temp_file broken (fun path ->
        error_message (fun () -> Trace_io.load path))
  in
  Alcotest.(check string) "same message" from_string from_file;
  Alcotest.(check bool)
    (Printf.sprintf "message cites line %d: %s" lineno from_string)
    true
    (let prefix = Printf.sprintf "line %d:" lineno in
     String.length from_string >= String.length prefix
     && String.sub from_string 0 (String.length prefix) = prefix)

let test_load_large_trace () =
  (* Regression for the streaming path: a trace far past any in-memory
     test fixture loads line-by-line and round-trips. *)
  let big = Progen.big_trace ~family:Progen.Pc_mesh ~events:10_000 ~seed:7 in
  let tr = Bigtrace.to_trace big in
  let text = Trace_io.to_string tr in
  with_temp_file text (fun path ->
      let tr' = Trace_io.load path in
      Alcotest.(check int) "event count" 10_000 (Trace.n_events tr');
      Alcotest.(check bool) "roundtrip" true (traces_equal tr tr'))

(* ------------------------------------------------------------------ *)
(* The columnar big-trace representation. *)

let prop_bigtrace_roundtrip =
  QCheck.Test.make ~name:"Bigtrace.of_trace/to_trace round-trips" ~count:60
    Gen_progs.arbitrary_program (fun prog ->
      match Gen_progs.completed_trace prog with
      | None -> true
      | Some tr ->
          let tr' = Bigtrace.to_trace (Bigtrace.of_trace tr) in
          tr'.Trace.events = tr.Trace.events
          && Rel.equal tr'.Trace.program_order tr.Trace.program_order
          && tr'.Trace.outcome = tr.Trace.outcome
          && tr'.Trace.sem_init = tr.Trace.sem_init
          && tr'.Trace.ev_init = tr.Trace.ev_init)

let test_bigtrace_save_read () =
  let big = Progen.big_trace ~family:Progen.Server_logs ~events:5_000 ~seed:3 in
  let path = Filename.temp_file "eo_triage_test" ".eotrace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Bigtrace.save path big;
      let big' = Bigtrace.read path in
      Alcotest.(check int) "events" (Bigtrace.n_events big)
        (Bigtrace.n_events big');
      Alcotest.(check bool) "same trace" true
        (Bigtrace.to_trace big = Bigtrace.to_trace big'))

let test_generated_families_triage_clean () =
  (* Every family's planted races are certified and every benign pair is
     refuted at tier 1 — no undecided survivors at streaming scale. *)
  List.iter
    (fun family ->
      let big = Progen.big_trace ~family ~events:4_096 ~seed:11 in
      let r = Triage.races_big big in
      let name = Progen.big_family_to_string family in
      Alcotest.(check bool) (name ^ ": observed schedule replays") true
        r.Triage.observed_feasible;
      Alcotest.(check int) (name ^ ": nothing undecided") 0 r.Triage.undecided;
      Alcotest.(check bool) (name ^ ": planted races found") true
        (r.Triage.certified > 0);
      Alcotest.(check int) (name ^ ": race list matches certified count")
        r.Triage.certified
        (List.length r.Triage.races))
    [ Progen.Pc_mesh; Progen.Server_logs; Progen.Fork_join ]

(* The streaming path against the exact engine, on traces small enough
   to decide every candidate exactly: the same candidates with the same
   variables, every certified race a feasible race, and no refuted pair
   one.  A candidate counts as refuted when the streaming must-before
   query orders it either way — the forced-order clock, which is what
   refutes it in the report. *)
let streaming_matches_exact tr =
  let x = Trace.to_execution tr in
  let big = Bigtrace.of_trace tr in
  let candidates = Bigtrace.conflicting_pairs big in
  let queries =
    List.concat_map
      (fun (a, b, _) -> [ (Triage.S_mhb, a, b); (Triage.S_mhb, b, a) ])
      candidates
  in
  let r = Triage.races_big ~queries big in
  let rec refuted candidates answers =
    match (candidates, answers) with
    | (a, b, _) :: cs, ab :: ba :: rest ->
        let later = refuted cs rest in
        if ab.Triage.q_verdict = Some true || ba.Triage.q_verdict = Some true
        then (a, b) :: later
        else later
    | _ -> []
  in
  let refuted = refuted candidates r.Triage.answers in
  let feasible =
    List.map (fun rc -> (rc.Race.e1, rc.Race.e2)) (Race.feasible_races x)
  in
  candidates
  = List.map
      (fun rc -> (rc.Race.e1, rc.Race.e2, rc.Race.variables))
      (Race.conflicting_pairs x)
  && List.length refuted = r.Triage.refuted
  && r.Triage.refuted + r.Triage.certified + r.Triage.undecided
     = r.Triage.candidates
  && List.for_all (fun (a, b, _) -> List.mem (a, b) feasible) r.Triage.races
  && not (List.exists (fun p -> List.mem p feasible) refuted)

(* A conflicting pair handed over through a 0-initialised semaphore with
   a single V, amid random filler: the clock refutes the handover pair,
   the filler brings races of its own. *)
let handover_gen =
  QCheck.Gen.(
    let filler =
      list_size (int_bound 2)
        (oneofl
           [
             Ast.Assign ("x", Expr.Int 1);
             Ast.Assign ("y", Expr.Var "x");
             Ast.Assign ("z", Expr.Int 7);
             Ast.Post "e";
             Ast.Wait "e";
             Ast.Skip None;
           ])
    in
    let conflicting =
      oneofl [ Ast.Assign ("x", Expr.Int 2); Ast.Assign ("y", Expr.Var "x") ]
    in
    filler >>= fun f1 ->
    filler >>= fun f2 ->
    filler >>= fun f3 ->
    conflicting >>= fun c ->
    bool >|= fun ev_init ->
    Ast.program ~sem_init:[ ("s", 0) ] ~ev_init:[ ("e", ev_init) ]
      [
        Ast.proc "producer"
          (f1 @ [ Ast.Assign ("x", Expr.Int 1); Ast.Sem_v "s" ] @ f2);
        Ast.proc "consumer" ([ Ast.Sem_p "s"; c ] @ f3);
      ])

let prop_streaming_matches_exact =
  QCheck.Test.make ~name:"races_big agrees with the exact race engine"
    ~count:200
    (QCheck.make ~print:Gen_progs.print_program
       (QCheck.Gen.oneof [ Gen_progs.program_gen; handover_gen ]))
    (fun prog ->
      match Gen_progs.completed_trace prog with
      | Some tr when Trace.n_events tr <= 12 -> streaming_matches_exact tr
      | _ -> true)

(* Progen programs bring several semaphores and event variables, so the
   forced-order clock refutes candidates there too. *)
let prop_streaming_matches_exact_progen =
  QCheck.Test.make
    ~name:"races_big agrees with the exact race engine (Progen programs)"
    ~count:150 QCheck.small_nat (fun seed ->
      let cfg =
        {
          Progen.default_config with
          processes = (2, 3);
          stmts_per_process = (2, 4);
          semaphores = 1 + (seed mod 2);
          event_variables = 1;
        }
      in
      match Progen.generate_completing ~seed cfg with
      | tr when Trace.n_events tr <= 12 -> streaming_matches_exact tr
      | _ -> true
      | exception Failure _ -> true)

(* ------------------------------------------------------------------ *)
(* Budget slicing: a starved tier escalates (counted, answer unchanged);
   a dead session budget degrades every primitive in its sound
   direction. *)

let racy_execution () =
  (* The tier-1 oracle cannot certify this race from the observed
     schedule (the V/P pairing orders the pair), so deciding it needs a
     higher tier. *)
  match
    Gen_progs.completed_trace
      (Parse.program
         "sem s = 0\n\
          proc writer { x := 1; v(s) }\n\
          proc helper { v(s) }\n\
          proc reader { p(s); x := 2 }")
      ~policy:(Sched.Replay [ 0; 0; 2; 2; 1 ])
  with
  | Some t -> Trace.to_execution t
  | None -> Alcotest.fail "fixture program deadlocked"

let test_starved_tier_escalates_not_degrades () =
  let x = racy_execution () in
  with_engine Engine.Auto (fun () ->
      let reference = race_set Engine.Packed ~jobs:1 x in
      Alcotest.(check int) "fixture has a hidden race" 1 (List.length reference);
      with_env "EO_TRIAGE_REACH_NODES" "1" (fun () ->
          let tel = Telemetry.create () in
          let races = Race.feasible_races ~stats:tel x in
          let c = Telemetry.counters tel in
          Alcotest.(check bool) "answers survive the starved reach tier" true
            (List.map (fun r -> (r.Race.e1, r.Race.e2)) races
            = List.map (fun r -> (r.Race.e1, r.Race.e2)) reference);
          Alcotest.(check bool) "the defeat is counted as an escalation" true
            (Counters.get c Counters.Triage_escalations > 0);
          Alcotest.(check int) "the starved tier answered nothing" 0
            (Counters.get c Counters.Triage_reach_hits)))

let test_starved_tiers_still_exact_in_session () =
  let x = racy_execution () in
  let reference = session_answers Engine.Naive x in
  with_env "EO_TRIAGE_REACH_NODES" "1" (fun () ->
      with_env "EO_TRIAGE_SAT_CONFLICTS" "1" (fun () ->
          Alcotest.(check bool)
            "auto stays exact when reach and sat slices are starved" true
            (session_answers Engine.Auto x = reference)))

let test_dead_budget_degrades_soundly () =
  let x = racy_execution () in
  with_engine Engine.Auto (fun () ->
      let budget = Budget.create ~node_budget:1 () in
      (* Exhaust it before any query runs. *)
      while not (Budget.exhausted budget) do
        ignore (Budget.poll_node budget)
      done;
      (* No oracle attached: every query must fall through to the
         budgeted tiers, which are all dead on arrival. *)
      let s = Session.of_execution ~budget ~cache:Session.no_cache x in
      (* Could-have queries degrade to false, must-have to true — the
         PR 5 degradation directions, now reached through the ladder. *)
      (match Session.exists_race_outcome s 0 3 with
      | Budget.Bound_hit false -> ()
      | Budget.Bound_hit true -> Alcotest.fail "race over-reported"
      | Budget.Exact _ -> Alcotest.fail "dead budget not reported");
      match Session.must_before_outcome s 0 4 with
      | Budget.Bound_hit true -> ()
      | Budget.Bound_hit false -> Alcotest.fail "must_before under-reported"
      | Budget.Exact _ -> Alcotest.fail "dead budget not reported")

let test_races_big_budget_truncates () =
  let big = Progen.big_trace ~family:Progen.Pc_mesh ~events:4_096 ~seed:5 in
  let budget = Budget.create ~node_budget:3 () in
  let r = Triage.races_big ~budget big in
  Alcotest.(check bool) "report is marked truncated" true r.Triage.truncated;
  Alcotest.(check bool) "only a prefix of candidates was decided" true
    (r.Triage.refuted + r.Triage.certified + r.Triage.undecided
    < r.Triage.candidates)

let suite =
  [
    qcheck prop_auto_matches_naive_sessions;
    qcheck prop_auto_matches_packed_relations;
    qcheck prop_auto_matches_race_sets;
    qcheck prop_auto_matches_sat_relations;
    qcheck prop_mhb_deciders_sound;
    qcheck prop_vclock_chb_decider_sound;
    qcheck prop_lamport_refuter_sound;
    qcheck prop_static_order_decider_sound;
    Alcotest.test_case "make clamps off-direction verdicts" `Quick
      test_make_clamps_direction;
    qcheck prop_load_matches_of_string;
    Alcotest.test_case "load error line numbers match of_string" `Quick
      test_load_error_line_numbers;
    Alcotest.test_case "streaming load of a 10k-event trace" `Quick
      test_load_large_trace;
    qcheck prop_bigtrace_roundtrip;
    Alcotest.test_case "bigtrace save/read roundtrip" `Quick
      test_bigtrace_save_read;
    Alcotest.test_case "generated families triage clean" `Quick
      test_generated_families_triage_clean;
    qcheck prop_streaming_matches_exact;
    qcheck prop_streaming_matches_exact_progen;
    Alcotest.test_case "starved tier escalates, answer unchanged" `Quick
      test_starved_tier_escalates_not_degrades;
    Alcotest.test_case "starved tiers stay exact in sessions" `Quick
      test_starved_tiers_still_exact_in_session;
    Alcotest.test_case "dead budget degrades in the sound direction" `Quick
      test_dead_budget_degrades_soundly;
    Alcotest.test_case "races_big budget expiry truncates the report" `Quick
      test_races_big_budget_truncates;
  ]
