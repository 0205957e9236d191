(* Budget semantics and graceful degradation.

   Unit tests pin the polling contract (caps trip exactly at their
   limit, the first tripper wins, expiry is sticky); the property test
   checks the degradation contract end to end: whatever engine, worker
   count and budget size serve a query, an [Exact] outcome must equal
   the unbudgeted reference and a [Bound_hit] outcome must err only in
   the sound direction — could-have relations under-reported, must-have
   relations over-reported, counts undercounted. *)

let qcheck = QCheck_alcotest.to_alcotest

let test_create_validation () =
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  rejects "timeout_ms 0" (fun () -> Budget.create ~timeout_ms:0 ());
  rejects "node_budget 0" (fun () -> Budget.create ~node_budget:0 ());
  rejects "conflict_budget -1" (fun () ->
      Budget.create ~conflict_budget:(-1) ());
  Alcotest.(check bool) "positive caps accepted" false
    (Budget.exhausted (Budget.create ~timeout_ms:60_000 ~node_budget:1 ()))

let test_unlimited () =
  let b = Budget.unlimited in
  Alcotest.(check bool) "is_unlimited" true (Budget.is_unlimited b);
  for _ = 1 to 1000 do
    if Budget.poll_node b || Budget.poll_conflict b then
      Alcotest.fail "unlimited budget tripped"
  done;
  Budget.cancel b;
  Alcotest.(check bool) "cancel is a no-op" false (Budget.exhausted b);
  Alcotest.(check bool) "check_now false" false (Budget.check_now b);
  Budget.raise_if_exhausted b

let test_node_budget_trips_at_limit () =
  let b = Budget.create ~node_budget:5 () in
  for i = 1 to 5 do
    if Budget.poll_node b then Alcotest.failf "tripped early at node %d" i
  done;
  Alcotest.(check bool) "node 6 trips" true (Budget.poll_node b);
  Alcotest.(check string) "reason" "node_budget"
    (match Budget.reason b with
    | Some r -> Budget.reason_name r
    | None -> "none");
  (* Expiry is sticky: every later poll reports it immediately, and the
     first tripper keeps the blame even if another cap is cancelled on
     top. *)
  Alcotest.(check bool) "sticky" true (Budget.poll_conflict b);
  Budget.cancel b;
  Alcotest.(check string) "first tripper wins" "node_budget"
    (match Budget.reason b with
    | Some r -> Budget.reason_name r
    | None -> "none");
  match Budget.raise_if_exhausted b with
  | exception Budget.Expired -> ()
  | () -> Alcotest.fail "raise_if_exhausted did not raise"

let test_cancel_and_deadline () =
  let b = Budget.create ~node_budget:1000 () in
  Budget.cancel b;
  Alcotest.(check bool) "cancelled" true (Budget.exhausted b);
  Alcotest.(check string) "reason cancelled" "cancelled"
    (match Budget.reason b with
    | Some r -> Budget.reason_name r
    | None -> "none");
  let d = Budget.create ~timeout_ms:1 () in
  Unix.sleepf 0.01;
  (* check_now re-reads the clock without spending an effort tick. *)
  Alcotest.(check bool) "deadline passed" true (Budget.check_now d);
  Alcotest.(check string) "reason deadline" "deadline"
    (match Budget.reason d with
    | Some r -> Budget.reason_name r
    | None -> "none");
  Alcotest.(check int) "no nodes spent" 0 (Budget.nodes_spent d)

let test_outcome_helpers () =
  Alcotest.(check int) "value exact" 3 (Budget.value (Budget.Exact 3));
  Alcotest.(check int) "value bound" 4 (Budget.value (Budget.Bound_hit 4));
  Alcotest.(check bool) "is_exact" true (Budget.is_exact (Budget.Exact ()));
  Alcotest.(check bool) "is_exact bound" false
    (Budget.is_exact (Budget.Bound_hit ()));
  match Budget.map string_of_int (Budget.Bound_hit 7) with
  | Budget.Bound_hit "7" -> ()
  | _ -> Alcotest.fail "map should preserve the constructor"

(* The pigeonhole principle for 4 pigeons in 3 holes: unsatisfiable,
   and resolution-hard enough that any CDCL run passes through several
   above-level-0 conflicts (the only points the budget is polled — a
   final level-0 conflict returns Unsat directly).  A one-conflict
   budget therefore always expires mid-solve. *)
let pigeonhole_unsat = Sat_gen.pigeonhole 3

let test_cdcl_conflict_budget () =
  (let solver = Cdcl.make pigeonhole_unsat in
   match Cdcl.solve_assuming solver [] with
   | Cdcl.Unsat ->
       Alcotest.(check bool) "needs several conflicts" true
         ((Cdcl.stats solver).Cdcl.conflicts >= 3)
   | Cdcl.Sat _ -> Alcotest.fail "formula should be unsat");
  let budget = Budget.create ~conflict_budget:1 () in
  let solver = Cdcl.make ~budget pigeonhole_unsat in
  (match Cdcl.solve_assuming solver [] with
  | exception Budget.Expired -> ()
  | Cdcl.Unsat | Cdcl.Sat _ -> Alcotest.fail "conflict budget did not expire");
  Alcotest.(check string) "reason" "conflict_budget"
    (match Budget.reason budget with
    | Some r -> Budget.reason_name r
    | None -> "none")

(* ---- degradation soundness, end to end ---- *)

let small_execution prog =
  match Gen_progs.completed_trace prog with
  | Some t when Trace.n_events t <= 9 -> Some (Trace.to_execution t)
  | _ -> None

let with_engine engine f =
  let saved = Engine.current () in
  Engine.set engine;
  Fun.protect ~finally:(fun () -> Engine.set saved) f

let same_summary name (a : Relations.t) (b : Relations.t) =
  if
    a.Relations.feasible_count <> b.Relations.feasible_count
    || (not (Rel.equal a.Relations.before_some b.Relations.before_some))
    || (not (Rel.equal a.Relations.comparable_some b.Relations.comparable_some))
    || not (Rel.equal a.Relations.incomparable_some b.Relations.incomparable_some)
  then QCheck.Test.fail_reportf "%s: exact outcome differs from reference" name

(* A truncated pass may only shrink what it saw: every existential
   summary is a subset of the reference and the count never overshoots. *)
let sound_summary name (s : Relations.t) (ref_s : Relations.t) =
  if s.Relations.feasible_count > ref_s.Relations.feasible_count then
    QCheck.Test.fail_reportf "%s: degraded count overshoots (%d > %d)" name
      s.Relations.feasible_count ref_s.Relations.feasible_count;
  List.iter
    (fun (field, a, b) ->
      if not (Rel.subset a b) then
        QCheck.Test.fail_reportf "%s: degraded %s not a subset" name field)
    [
      ("before_some", s.Relations.before_some, ref_s.Relations.before_some);
      ( "comparable_some",
        s.Relations.comparable_some,
        ref_s.Relations.comparable_some );
      ( "incomparable_some",
        s.Relations.incomparable_some,
        ref_s.Relations.incomparable_some );
    ]

let is_must = function
  | Relations.MHB | Relations.MOW | Relations.MCW -> true
  | Relations.CHB | Relations.COW | Relations.CCW -> false

let check_outcomes name session ref_decide n =
  let d = Decide.of_session session in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b then
        List.iter
          (fun rel ->
            let reference = Decide.holds ref_decide rel a b in
            match Decide.holds_outcome d rel a b with
            | Budget.Exact v ->
                if v <> reference then
                  QCheck.Test.fail_reportf "%s: exact %s disagrees on (%d,%d)"
                    name (Relations.relation_name rel) a b
            | Budget.Bound_hit v ->
                (* Sound direction only: must-relations may gain pairs,
                   could-relations may lose them — never the reverse. *)
                let sound = if is_must rel then reference <= v else v <= reference in
                if not sound then
                  QCheck.Test.fail_reportf
                    "%s: degraded %s unsound on (%d,%d): ref=%b got=%b" name
                    (Relations.relation_name rel) a b reference v)
          Relations.all_relations
    done
  done

let test_budget_monotonic =
  QCheck.Test.make ~name:"budgeted outcomes: exact = reference, degraded sound"
    ~count:8 Gen_progs.arbitrary_program (fun prog ->
      QCheck.assume (small_execution prog <> None);
      let x = Option.get (small_execution prog) in
      let sk = Skeleton.of_execution x in
      let n = Execution.n_events x in
      let ref_full = Relations.compute_enumerated sk in
      let ref_reduced = Relations.compute_reduced sk in
      let ref_decide = Decide.create x in
      List.iter
        (fun engine ->
          with_engine engine @@ fun () ->
          List.iter
            (fun jobs ->
              List.iter
                (fun node_budget ->
                  let name =
                    Printf.sprintf "%s/jobs=%d/nodes=%d"
                      (Engine.to_string engine) jobs node_budget
                  in
                  let budget = Budget.create ~node_budget () in
                  let session =
                    Session.create ~jobs ~budget ~cache:Session.no_cache sk
                  in
                  (match Relations.of_session_outcome session with
                  | Budget.Exact s -> same_summary (name ^ " full") s ref_full
                  | Budget.Bound_hit s ->
                      sound_summary (name ^ " full") s ref_full);
                  (match Relations.of_session_reduced_outcome session with
                  | Budget.Exact s ->
                      same_summary (name ^ " reduced") s ref_reduced
                  | Budget.Bound_hit s ->
                      sound_summary (name ^ " reduced") s ref_reduced);
                  check_outcomes name session ref_decide n;
                  (* A generous budget must not change any answer. *)
                  if node_budget = 10_000_000 then begin
                    if Budget.exhausted budget then
                      QCheck.Test.fail_reportf "%s: generous budget tripped"
                        name;
                    match Relations.of_session_outcome session with
                    | Budget.Exact _ -> ()
                    | Budget.Bound_hit _ ->
                        QCheck.Test.fail_reportf
                          "%s: generous budget degraded" name
                  end)
                [ 1; 10_000_000 ])
            [ 1; 4 ])
        [ Engine.Naive; Engine.Packed; Engine.Sat ];
      true)

let suite =
  [
    Alcotest.test_case "create validates caps" `Quick test_create_validation;
    Alcotest.test_case "unlimited never trips" `Quick test_unlimited;
    Alcotest.test_case "node budget trips at limit" `Quick
      test_node_budget_trips_at_limit;
    Alcotest.test_case "cancel and deadline" `Quick test_cancel_and_deadline;
    Alcotest.test_case "outcome helpers" `Quick test_outcome_helpers;
    Alcotest.test_case "CDCL conflict budget" `Quick test_cdcl_conflict_budget;
    qcheck test_budget_monotonic;
  ]
