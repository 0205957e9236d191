let qcheck = QCheck_alcotest.to_alcotest

let trace_of src =
  match Gen_progs.completed_trace (Parse.program src) with
  | Some t -> t
  | None -> Alcotest.fail "fixture program deadlocked"

let producer_consumer =
  "sem s = 0\nproc producer { x := 1; v(s) }\nproc consumer { p(s); y := x }\nproc bystander { z := 42 }"

let test_chain_hb () =
  let tr = trace_of producer_consumer in
  let x = Trace.to_execution tr in
  let vc = Vclock.of_execution x in
  let id l = (Trace.find_event tr l).Event.id in
  Alcotest.(check bool) "x -> V" true (Vclock.hb vc (id "x := 1") (id "V(s)"));
  Alcotest.(check bool) "V -> P via pairing" true
    (Vclock.hb vc (id "V(s)") (id "P(s)"));
  Alcotest.(check bool) "x -> y transitively" true
    (Vclock.hb vc (id "x := 1") (id "y := x"));
  Alcotest.(check bool) "no reverse" false
    (Vclock.hb vc (id "y := x") (id "x := 1"));
  Alcotest.(check bool) "bystander concurrent" true
    (Vclock.concurrent vc (id "z := 42") (id "y := x"));
  Alcotest.(check bool) "irreflexive" false
    (Vclock.hb vc (id "x := 1") (id "x := 1"))

let test_clock_values () =
  let tr = trace_of "proc a { x := 1; y := 2 }" in
  let vc = Vclock.of_execution (Trace.to_execution tr) in
  Alcotest.(check (array int)) "first event" [| 1 |] (Vclock.clock vc 0);
  Alcotest.(check (array int)) "second event" [| 2 |] (Vclock.clock vc 1)

(* Vector-clock hb must equal the closure of program order plus the
   schedule's synchronization edges (no shared-data edges). *)
let expected_hb sk schedule =
  let r = Rel.create sk.Skeleton.n in
  for b = 0 to sk.Skeleton.n - 1 do
    List.iter (fun a -> Rel.add r a b) sk.Skeleton.po_preds.(b)
  done;
  List.iter (fun (a, b) -> Rel.add r a b) (Pinned.sync_edges sk schedule);
  Rel.transitive_closure_in_place r;
  r

let prop_hb_is_po_plus_sync =
  QCheck.Test.make ~name:"vclock hb = closure(po + sync edges)" ~count:150
    Gen_progs.arbitrary_program (fun prog ->
      match Gen_progs.completed_trace prog with
      | None -> true
      | Some tr ->
          let x = Trace.to_execution tr in
          let sk = Skeleton.of_execution x in
          let schedule = Trace.schedule tr in
          let vc = Vclock.compute sk schedule in
          Rel.equal (Vclock.hb_rel vc) (expected_hb sk schedule))

let prop_hb_within_pinned =
  QCheck.Test.make ~name:"vclock hb ⊆ pinned po of the observed schedule"
    ~count:150 Gen_progs.arbitrary_program (fun prog ->
      match Gen_progs.completed_trace prog with
      | None -> true
      | Some tr ->
          let x = Trace.to_execution tr in
          let sk = Skeleton.of_execution x in
          let schedule = Trace.schedule tr in
          let vc = Vclock.compute sk schedule in
          Rel.subset (Vclock.hb_rel vc) (Pinned.po_of_schedule sk schedule))

(* The paper's point about pairing-based orders: vclock hb is NOT a sound
   approximation of MHB.  Witness: two V's can serve one P. *)
let test_unsafe_as_mhb () =
  let tr =
    trace_of
      "sem s = 0\nproc first { v(s) }\nproc second { v(s) }\nproc taker { p(s); b: skip }"
  in
  let x = Trace.to_execution tr in
  let vc = Vclock.of_execution x in
  (* Two events share the "V(s)" label; pick them by kind and position. *)
  let events = x.Execution.events in
  let p =
    (Array.to_list events
    |> List.find (fun e -> e.Event.kind = Event.Sync (Event.Sem_p 0)))
      .Event.id
  in
  let paired_v =
    (* the observed first V *)
    (Array.to_list events
    |> List.find (fun e -> e.Event.kind = Event.Sync (Event.Sem_v 0)))
      .Event.id
  in
  Alcotest.(check bool) "vclock claims V1 -> P" true (Vclock.hb vc paired_v p);
  let d = Decide.create x in
  Alcotest.(check bool) "but V1 MHB P is false (V2 could serve)" false
    (Decide.holds d Relations.MHB paired_v p)

let prop_lamport_consistent =
  QCheck.Test.make ~name:"lamport clocks consistent with vclock hb" ~count:150
    Gen_progs.arbitrary_program (fun prog ->
      match Gen_progs.completed_trace prog with
      | None -> true
      | Some tr ->
          let x = Trace.to_execution tr in
          let lc = Lamport.of_execution x in
          let vc = Vclock.of_execution x in
          Lamport.consistent_with lc (Vclock.hb_rel vc))

let test_lamport_chain () =
  let tr = trace_of producer_consumer in
  let lc = Lamport.of_execution (Trace.to_execution tr) in
  let id l = (Trace.find_event tr l).Event.id in
  Alcotest.(check bool) "strictly increasing along chain" true
    (Lamport.timestamp lc (id "x := 1") < Lamport.timestamp lc (id "V(s)")
    && Lamport.timestamp lc (id "V(s)") < Lamport.timestamp lc (id "P(s)")
    && Lamport.timestamp lc (id "P(s)") < Lamport.timestamp lc (id "y := x"))

let test_rejects_partial_temporal () =
  let events =
    [|
      Event.make ~id:0 ~pid:0 ~seq:0 ~kind:Event.Computation ();
      Event.make ~id:1 ~pid:1 ~seq:0 ~kind:Event.Computation ();
    |]
  in
  let x =
    Execution.make ~events ~program_order:(Rel.create 2)
      ~temporal:(Rel.create 2) ~dependences:(Rel.create 2) ()
  in
  match Vclock.of_execution x with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on partial temporal order"

let suite =
  [
    Alcotest.test_case "chain hb" `Quick test_chain_hb;
    Alcotest.test_case "clock values" `Quick test_clock_values;
    Alcotest.test_case "unsafe as MHB approximation" `Quick test_unsafe_as_mhb;
    Alcotest.test_case "lamport chain" `Quick test_lamport_chain;
    Alcotest.test_case "rejects partial temporal order" `Quick
      test_rejects_partial_temporal;
    qcheck prop_hb_is_po_plus_sync;
    qcheck prop_hb_within_pinned;
    qcheck prop_lamport_consistent;
  ]
