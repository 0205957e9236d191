(* Differential property tests for the SAT backend: the encoder
   ([Eo_encode]) against the memoized state engine pair by pair, and the
   fully routed stack (session, decide, races, theorem checkers) under
   [Engine.Sat] against the exact engines.  Every positive SAT answer
   must come with a replay-certified witness — the encoding is only
   trusted because these properties hold. *)

let qcheck = QCheck_alcotest.to_alcotest

let with_engine engine f =
  let saved = Engine.current () in
  Engine.set engine;
  Fun.protect ~finally:(fun () -> Engine.set saved) f

let small_skeleton prog =
  match Gen_progs.completed_trace prog with
  | Some t when Trace.n_events t <= 9 ->
      Some (Skeleton.of_execution (Trace.to_execution t))
  | _ -> None

let positions n s =
  let pos = Array.make n 0 in
  Array.iteri (fun i e -> pos.(e) <- i) s;
  pos

(* Encode vs Reach on one skeleton: feasibility, every could-happen-
   before pair, every race pair — witness positions included. *)
let check_encode_against_reach sk =
  let n = sk.Skeleton.n in
  let reach = Reach.create sk in
  let enc = Encode.build (Session.encode_program sk) in
  (match Encode.feasible_witness enc with
  | Some s ->
      if not (Reach.feasible_exists reach) then
        QCheck.Test.fail_report "SAT feasible, reach not";
      if not (Replay.is_feasible sk s) then
        QCheck.Test.fail_report "feasible witness rejected by replay"
  | None ->
      if Reach.feasible_exists reach then
        QCheck.Test.fail_report "reach feasible, SAT not");
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      let eb = Reach.exists_before reach a b in
      (match Encode.exists_before_witness enc a b with
      | Some s ->
          if not eb then
            QCheck.Test.fail_reportf "CHB %d %d: SAT yes, reach no" a b;
          if not (Replay.is_feasible sk s) then
            QCheck.Test.fail_reportf "CHB %d %d: witness rejected" a b;
          let pos = positions n s in
          if pos.(a) >= pos.(b) then
            QCheck.Test.fail_reportf "CHB %d %d: witness misordered" a b
      | None ->
          if eb then
            QCheck.Test.fail_reportf "CHB %d %d: reach yes, SAT no" a b);
      let rc = Reach.exists_race reach a b in
      match Encode.race_witness enc a b with
      | Some (s1, s2) ->
          if not rc then
            QCheck.Test.fail_reportf "race %d %d: SAT yes, reach no" a b;
          if not (Replay.is_feasible sk s1 && Replay.is_feasible sk s2) then
            QCheck.Test.fail_reportf "race %d %d: witness rejected" a b;
          let p1 = positions n s1 and p2 = positions n s2 in
          if p1.(b) <> p1.(a) + 1 || p2.(a) <> p2.(b) + 1 then
            QCheck.Test.fail_reportf "race %d %d: not back-to-back" a b
      | None ->
          if rc then
            QCheck.Test.fail_reportf "race %d %d: reach yes, SAT no" a b
    done
  done

let prop_encode_matches_reach =
  QCheck.Test.make ~name:"Encode = Reach on every pair" ~count:40
    Gen_progs.arbitrary_program (fun prog ->
      QCheck.assume (small_skeleton prog <> None);
      check_encode_against_reach (Option.get (small_skeleton prog));
      true)

(* The Gen_progs grammar has one counting semaphore; Progen programs add
   binary semaphores, several semaphores and richer event-variable use,
   so the last-setter trigger encodings get exercised too. *)
let test_encode_progen () =
  let hits = ref 0 in
  for seed = 1 to 120 do
    let cfg =
      {
        Progen.default_config with
        processes = (2, 3);
        stmts_per_process = (1, 3);
        semaphores = (if seed mod 3 = 0 then 2 else 1);
        binary_semaphores = seed mod 2 = 0;
        event_variables = 1;
      }
    in
    match
      try Some (Progen.generate_completing ~seed cfg) with Failure _ -> None
    with
    | Some tr when Trace.n_events tr <= 9 ->
        incr hits;
        check_encode_against_reach
          (Skeleton.of_execution (Trace.to_execution tr))
    | _ -> ()
  done;
  Alcotest.(check bool) "enough generated programs" true (!hits >= 40)

(* The routed stack: every Table-1 relation decided under Engine.Sat
   equals the packed engine's decision, for every ordered pair.  MCW/COW
   ride the class summary whose happened-before bits come from SAT
   probes under this engine, so the summary path is covered too. *)
let prop_decide_sat_matches_packed =
  QCheck.Test.make ~name:"Decide under sat = Decide under packed" ~count:25
    Gen_progs.arbitrary_program (fun prog ->
      QCheck.assume (small_skeleton prog <> None);
      let sk = Option.get (small_skeleton prog) in
      let n = sk.Skeleton.n in
      let decisions engine =
        with_engine engine @@ fun () ->
        let d = Decide.of_session (Session.create sk) in
        List.concat_map
          (fun rel ->
            List.concat
              (List.init n (fun a ->
                   List.init n (fun b ->
                       a <> b && Decide.holds d rel a b))))
          Relations.all_relations
      in
      let sat = decisions Engine.Sat and packed = decisions Engine.Packed in
      if sat <> packed then
        QCheck.Test.fail_report "relation matrices differ between engines";
      true)

let race_key (r : Race.race) = (r.Race.e1, r.Race.e2, r.Race.variables)

let prop_races_sat_matches_packed =
  QCheck.Test.make ~name:"feasible races under sat = packed" ~count:25
    Gen_progs.arbitrary_program (fun prog ->
      QCheck.assume (small_skeleton prog <> None);
      let sk = Option.get (small_skeleton prog) in
      let x = sk.Skeleton.execution in
      let races engine =
        with_engine engine @@ fun () ->
        List.sort compare (List.map race_key (Race.feasible_races x))
      in
      if races Engine.Sat <> races Engine.Packed then
        QCheck.Test.fail_report "race sets differ between engines";
      true)

(* Witnesses surfaced through the session API under Engine.Sat are
   replay-feasible and order the pair as asked (the session certifies
   internally; this re-checks from the outside). *)
let prop_session_witnesses =
  QCheck.Test.make ~name:"session SAT witnesses replay and order" ~count:25
    Gen_progs.arbitrary_program (fun prog ->
      QCheck.assume (small_skeleton prog <> None);
      let sk = Option.get (small_skeleton prog) in
      let n = sk.Skeleton.n in
      with_engine Engine.Sat @@ fun () ->
      let session = Session.create ~cache:Session.no_cache sk in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          match Session.witness_before session a b with
          | Some s ->
              if not (Replay.is_feasible sk s) then
                QCheck.Test.fail_reportf "witness %d %d infeasible" a b;
              let pos = positions n s in
              if pos.(a) >= pos.(b) then
                QCheck.Test.fail_reportf "witness %d %d misordered" a b
          | None ->
              if Session.exists_before session a b then
                QCheck.Test.fail_reportf "CHB %d %d holds but no witness" a b
        done
      done;
      true)

(* The UNSAT side at scale beyond random pairs: on the Theorem 1/3
   reduction programs, MHB(a,b) under Engine.Sat must track the DPLL
   verdict on the reduced formula — the theorem checkers compare the
   two verdicts themselves. *)
let random_tiny_3cnf =
  QCheck.make
    ~print:(fun f -> Format.asprintf "%a" Cnf.pp f)
    QCheck.Gen.(
      int_range 1 2 >>= fun nv ->
      list_size (int_range 1 2)
        (list_repeat 3 (int_range 1 nv >>= fun v -> oneofl [ v; -v ]))
      >>= fun clauses -> return (Cnf.make ~num_vars:nv clauses))

let prop_theorem1_sat_engine =
  QCheck.Test.make ~name:"Theorem 1 under the sat engine" ~count:10
    random_tiny_3cnf (fun f ->
      with_engine Engine.Sat @@ fun () ->
      (Theorems.check_theorem_1 f).Theorems.agrees)

let prop_theorem3_sat_engine =
  QCheck.Test.make ~name:"Theorem 3 under the sat engine" ~count:6
    random_tiny_3cnf (fun f ->
      with_engine Engine.Sat @@ fun () ->
      (Theorems.check_theorem_3 f).Theorems.agrees)

(* Fixed formulas pin both truth values for Theorems 1 and 2 (the CHB
   side) under the SAT engine. *)
let test_theorem_fixed_sat_engine () =
  with_engine Engine.Sat @@ fun () ->
  List.iter
    (fun (name, f) ->
      List.iter
        (fun (check : Theorems.check) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: theorem %d agrees" name check.Theorems.theorem)
            true check.Theorems.agrees)
        [ Theorems.check_theorem_1 f; Theorems.check_theorem_2 f ])
    [
      ("tiny sat", Sat_gen.tiny_sat_3cnf ());
      ("tiny unsat", Sat_gen.tiny_unsat_3cnf ());
    ]

let suite =
  [
    qcheck prop_encode_matches_reach;
    Alcotest.test_case "Encode = Reach on Progen programs" `Quick
      test_encode_progen;
    qcheck prop_decide_sat_matches_packed;
    qcheck prop_races_sat_matches_packed;
    qcheck prop_session_witnesses;
    qcheck prop_theorem1_sat_engine;
    qcheck prop_theorem3_sat_engine;
    Alcotest.test_case "theorems 1-2 fixed formulas, sat engine" `Quick
      test_theorem_fixed_sat_engine;
  ]
