let qcheck = QCheck_alcotest.to_alcotest

let execution_of src =
  match Gen_progs.completed_trace (Parse.program src) with
  | Some t -> Trace.to_execution t
  | None -> Alcotest.fail "fixture program deadlocked"

let test_unsynchronized_race () =
  let x = execution_of "proc a { x := 1 }\nproc b { x := 2 }" in
  (match Race.conflicting_pairs x with
  | [ r ] -> Alcotest.(check (list int)) "on x" [ 0 ] r.Race.variables
  | _ -> Alcotest.fail "expected one candidate");
  Alcotest.(check int) "apparent" 1 (List.length (Race.apparent_races x));
  Alcotest.(check int) "feasible" 1 (List.length (Race.feasible_races x))

let test_synchronized_no_race () =
  let x =
    execution_of "sem s = 0\nproc a { x := 1; v(s) }\nproc b { p(s); x := 2 }"
  in
  Alcotest.(check int) "one candidate" 1 (List.length (Race.conflicting_pairs x));
  Alcotest.(check int) "no apparent race" 0 (List.length (Race.apparent_races x));
  Alcotest.(check int) "no feasible race" 0 (List.length (Race.feasible_races x))

let test_read_read_not_conflicting () =
  let x = execution_of "var x = 1\nproc a { y := x }\nproc b { z := x }" in
  Alcotest.(check int) "reads do not conflict" 0
    (List.length (Race.conflicting_pairs x))

let test_same_process_not_conflicting () =
  let x = execution_of "proc a { x := 1; x := 2 }" in
  Alcotest.(check int) "program order is not a race" 0
    (List.length (Race.conflicting_pairs x))

(* The ordering the observed pairing suggests can evaporate in another
   feasible execution: an apparent-race detector based on the observed
   vector clocks misses this one. *)
let test_feasible_race_hidden_from_vclock () =
  let src =
    "sem s = 0\n\
     proc writer { x := 1; v(s) }\n\
     proc helper { v(s) }\n\
     proc reader { p(s); x := 2 }"
  in
  let x =
    (* Observed order: writer runs first, so its V pairs with the P. *)
    match
      Gen_progs.completed_trace
        ~policy:(Sched.Replay [ 0; 0; 2; 2; 1 ])
        (Parse.program src)
    with
    | Some t -> Trace.to_execution t
    | None -> Alcotest.fail "fixture program deadlocked"
  in
  (* Observed run: writer's V pairs with the P, so vclock orders
     x:=1 -> x:=2 and sees no race. *)
  Alcotest.(check int) "no apparent race" 0 (List.length (Race.apparent_races x));
  (* But helper's V could have served the P instead. *)
  Alcotest.(check int) "one feasible race" 1
    (List.length (Race.feasible_races x))

let test_is_feasible_race_single_pair () =
  let x = execution_of "proc a { x := 1 }\nproc b { x := 2 }" in
  Alcotest.(check (list (pair int int)))
    "pair is racy" [ (0, 1) ]
    (List.map (fun r -> (r.Race.e1, r.Race.e2)) (Race.feasible_races x));
  Alcotest.(check bool) "witnessed" true (Race.race_witness x 0 1 <> None);
  Alcotest.(check bool) "symmetric" true (Race.race_witness x 1 0 <> None)

let test_pp_race () =
  let x = execution_of "proc a { x := 1 }\nproc b { x := 2 }" in
  match Race.apparent_races x with
  | [ r ] ->
      let s = Format.asprintf "%a" (Race.pp_race x) r in
      Alcotest.(check bool) "mentions both labels" true
        (String.length s > 0)
  | _ -> Alcotest.fail "expected one race"

let prop_feasible_races_are_candidates =
  QCheck.Test.make ~name:"feasible races ⊆ conflicting candidates" ~count:80
    Gen_progs.arbitrary_program (fun prog ->
      match Gen_progs.completed_trace prog with
      | None -> true
      | Some tr ->
          if Trace.n_events tr > 7 then true
          else
            let x = Trace.to_execution tr in
            let candidates = Race.conflicting_pairs x in
            List.for_all
              (fun r ->
                List.exists
                  (fun c -> c.Race.e1 = r.Race.e1 && c.Race.e2 = r.Race.e2)
                  candidates)
              (Race.feasible_races x))

let prop_apparent_races_are_candidates =
  QCheck.Test.make ~name:"apparent races ⊆ conflicting candidates" ~count:80
    Gen_progs.arbitrary_program (fun prog ->
      match Gen_progs.completed_trace prog with
      | None -> true
      | Some tr ->
          let x = Trace.to_execution tr in
          let candidates = Race.conflicting_pairs x in
          List.for_all
            (fun r ->
              List.exists
                (fun c -> c.Race.e1 = r.Race.e1 && c.Race.e2 = r.Race.e2)
                candidates)
            (Race.apparent_races x))

let test_first_races () =
  (* Two races in sequence: the writers re-meet after a semaphore
     rendezvous, so the second race is downstream of the first. *)
  let src =
    "sem s = 0\n\
     proc a { x := 1; v(s); p(t) ; x := 3 }\n\
     proc b { x := 2; v(t); p(s) ; x := 4 }"
  in
  let x = execution_of src in
  let feasible = Race.feasible_races x in
  let first = Gen_progs.first_races x in
  Alcotest.(check bool) "several feasible races" true (List.length feasible > 1);
  Alcotest.(check bool) "first races are fewer" true
    (List.length first < List.length feasible);
  (* The x:=1 / x:=2 race is first. *)
  Alcotest.(check bool) "initial pair is first" true
    (List.exists (fun r -> r.Race.e1 = 0) first)

let test_first_races_independent () =
  (* Two independent races: both are first. *)
  let x =
    execution_of
      "proc a { x := 1 }\nproc b { x := 2 }\nproc c { y := 1 }\nproc d { y := 2 }"
  in
  Alcotest.(check int) "both first" 2 (List.length (Gen_progs.first_races x))

let test_race_witness () =
  let x = execution_of "proc a { x := 1 }\nproc b { x := 2 }" in
  (match Race.race_witness x 0 1 with
  | None -> Alcotest.fail "expected a witness"
  | Some (s1, s2) ->
      Alcotest.(check (array int)) "first order" [| 0; 1 |] s1;
      Alcotest.(check (array int)) "second order" [| 1; 0 |] s2);
  (* Synchronized pair: no witness. *)
  let x =
    execution_of "sem s = 0\nproc a { x := 1; v(s) }\nproc b { p(s); x := 2 }"
  in
  let writer =
    (Array.to_list x.Execution.events
    |> List.find (fun e -> e.Event.label = "x := 1")).Event.id
  in
  let reader =
    (Array.to_list x.Execution.events
    |> List.find (fun e -> e.Event.label = "x := 2")).Event.id
  in
  Alcotest.(check bool) "no witness when synchronized" true
    (Race.race_witness x writer reader = None)

let prop_witness_iff_race =
  QCheck.Test.make ~name:"race_witness = Some iff is_feasible_race" ~count:60
    Gen_progs.arbitrary_program (fun prog ->
      match Gen_progs.completed_trace prog with
      | None -> true
      | Some tr ->
          if Trace.n_events tr > 7 then true
          else
            let x = Trace.to_execution tr in
            let feasible = Race.feasible_races x in
            List.for_all
              (fun r ->
                match Race.race_witness x r.Race.e1 r.Race.e2 with
                | Some (s1, s2) ->
                    List.mem r feasible
                    && Array.length s1 = Execution.n_events x
                    && Array.length s2 = Execution.n_events x
                | None -> not (List.mem r feasible))
              (Race.conflicting_pairs x))

let prop_first_subset_feasible =
  QCheck.Test.make ~name:"first races ⊆ feasible races" ~count:60
    Gen_progs.arbitrary_program (fun prog ->
      match Gen_progs.completed_trace prog with
      | None -> true
      | Some tr ->
          if Trace.n_events tr > 7 then true
          else
            let x = Trace.to_execution tr in
            let feasible = Race.feasible_races x in
            List.for_all (fun r -> List.mem r feasible) (Gen_progs.first_races x))

let prop_state_engine_matches_enumeration =
  QCheck.Test.make
    ~name:"state-engine race decision = enumerated pinned-incomparability \
           (semaphore programs)"
    ~count:60 Gen_progs.arbitrary_program (fun prog ->
      (* Restrict to semaphore-only programs, where the pinned order is
         exact (see Pinned); Clear corners may legitimately differ. *)
      QCheck.assume (not (Ast.uses_event_sync prog));
      match Gen_progs.completed_trace prog with
      | None -> true
      | Some tr ->
          if Trace.n_events tr > 7 then true
          else
            let x = Trace.to_execution tr in
            (* ~limit selects the enumeration reference path; the cap is
               far above any 7-event schedule count *)
            Race.feasible_races x = Race.feasible_races ~limit:10_000_000 x)

let suite =
  [
    Alcotest.test_case "unsynchronized race" `Quick test_unsynchronized_race;
    Alcotest.test_case "synchronized: no race" `Quick test_synchronized_no_race;
    Alcotest.test_case "read-read not conflicting" `Quick
      test_read_read_not_conflicting;
    Alcotest.test_case "same process not conflicting" `Quick
      test_same_process_not_conflicting;
    Alcotest.test_case "feasible race hidden from vector clocks" `Quick
      test_feasible_race_hidden_from_vclock;
    Alcotest.test_case "single-pair decision" `Quick
      test_is_feasible_race_single_pair;
    Alcotest.test_case "race printing" `Quick test_pp_race;
    Alcotest.test_case "race witnesses" `Quick test_race_witness;
    qcheck prop_witness_iff_race;
    Alcotest.test_case "first races" `Quick test_first_races;
    Alcotest.test_case "independent races are both first" `Quick
      test_first_races_independent;
    qcheck prop_first_subset_feasible;
    qcheck prop_feasible_races_are_candidates;
    qcheck prop_apparent_races_are_candidates;
    qcheck prop_state_engine_matches_enumeration;
  ]
