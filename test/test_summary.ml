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

let suite =
  [
    qcheck prop_one_pass;
    qcheck prop_relations_match_reference;
    qcheck prop_count_then_relations;
    qcheck prop_starved_budget;
    Alcotest.test_case "relations enumerates only under a limit or naive"
      `Quick test_enumerates_only_when_needed;
  ]
