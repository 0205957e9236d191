let qcheck = QCheck_alcotest.to_alcotest

let summary_of src =
  match Gen_progs.completed_trace (Parse.program src) with
  | Some t ->
      let sk = Skeleton.of_execution (Trace.to_execution t) in
      (t, Relations.compute_enumerated sk)
  | None -> Alcotest.fail "fixture program deadlocked"

let producer_consumer =
  "sem s = 0\nproc producer { x := 1; v(s) }\nproc consumer { p(s); y := x }\nproc bystander { z := 42 }"

let test_quickstart_matrix () =
  let tr, s = summary_of producer_consumer in
  let id l = (Trace.find_event tr l).Event.id in
  let x = id "x := 1" and v = id "V(s)" and p = id "P(s)" in
  let y = id "y := x" and z = id "z := 42" in
  Alcotest.(check int) "5 schedules" 5 s.Relations.feasible_count;
  (* Chain is MHB all the way down. *)
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "chain MHB" true (Relations.holds s Relations.MHB a b))
    [ (x, v); (v, p); (p, y); (x, y); (x, p); (v, y) ];
  (* The bystander is MCW with everything. *)
  List.iter
    (fun e ->
      Alcotest.(check bool) "bystander MCW" true
        (Relations.holds s Relations.MCW z e);
      Alcotest.(check bool) "bystander CHB" true
        (Relations.holds s Relations.CHB z e);
      Alcotest.(check bool) "bystander CHB (other way)" true
        (Relations.holds s Relations.CHB e z);
      Alcotest.(check bool) "bystander never MOW" false
        (Relations.holds s Relations.MOW z e))
    [ x; v; p; y ];
  (* Chain pairs are MOW and never CCW. *)
  Alcotest.(check bool) "x MOW y" true (Relations.holds s Relations.MOW x y);
  Alcotest.(check bool) "x CCW y" false (Relations.holds s Relations.CCW x y);
  (* Diagonal is empty. *)
  List.iter
    (fun r -> Alcotest.(check bool) "irreflexive" false (Relations.holds s r x x))
    Relations.all_relations

let test_to_rel_consistency () =
  let _, s = summary_of producer_consumer in
  List.iter
    (fun rel ->
      let m = Relations.to_rel s rel in
      let ok = ref true in
      for a = 0 to s.Relations.n - 1 do
        for b = 0 to s.Relations.n - 1 do
          if Rel.mem m a b <> Relations.holds s rel a b then ok := false
        done
      done;
      Alcotest.(check bool) "matrix matches holds" true !ok)
    Relations.all_relations

let test_limit_truncation () =
  let tr, _ = summary_of producer_consumer in
  let sk = Skeleton.of_execution (Trace.to_execution tr) in
  let s = Relations.compute_enumerated ~limit:2 sk in
  Alcotest.(check bool) "truncated" true s.Relations.truncated;
  Alcotest.(check int) "capped" 2 s.Relations.feasible_count

let test_straightline_program () =
  let _, s = summary_of "proc only { x := 1; y := x; x := y }" in
  Alcotest.(check int) "single schedule" 1 s.Relations.feasible_count;
  Alcotest.(check bool) "0 MHB 1" true (Relations.holds s Relations.MHB 0 1);
  Alcotest.(check bool) "0 CCW 1" false (Relations.holds s Relations.CCW 0 1)

(* ------------------------------------------------------------------ *)
(* Structural properties of Table 1 over random programs               *)
(* ------------------------------------------------------------------ *)

let with_summary prog f =
  match Gen_progs.completed_trace prog with
  | None -> true
  | Some tr ->
      if Trace.n_events tr > 7 then true
      else
        let sk = Skeleton.of_execution (Trace.to_execution tr) in
        f sk (Relations.compute_enumerated sk)

let forall_pairs n f =
  let ok = ref true in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b && not (f a b) then ok := false
    done
  done;
  !ok

let prop_must_implies_could =
  QCheck.Test.make ~name:"MHB ⊆ CHB, MCW ⊆ CCW, MOW ⊆ COW" ~count:120
    Gen_progs.arbitrary_program (fun prog ->
      with_summary prog (fun _ s ->
          s.Relations.feasible_count = 0
          || forall_pairs s.Relations.n (fun a b ->
                 (not (Relations.holds s Relations.MHB a b)
                 || Relations.holds s Relations.CHB a b)
                 && ((not (Relations.holds s Relations.MCW a b))
                    || Relations.holds s Relations.CCW a b)
                 && ((not (Relations.holds s Relations.MOW a b))
                    || Relations.holds s Relations.COW a b))))

let prop_partition =
  QCheck.Test.make
    ~name:"per class: comparable or incomparable — CCW ∪ COW covers all pairs"
    ~count:120 Gen_progs.arbitrary_program (fun prog ->
      with_summary prog (fun _ s ->
          s.Relations.feasible_count = 0
          || forall_pairs s.Relations.n (fun a b ->
                 Relations.holds s Relations.CCW a b
                 || Relations.holds s Relations.COW a b)))

let prop_mhb_antisymmetric =
  QCheck.Test.make ~name:"MHB is antisymmetric and transitive" ~count:120
    Gen_progs.arbitrary_program (fun prog ->
      with_summary prog (fun _ s ->
          let mhb = Relations.to_rel s Relations.MHB in
          Rel.is_antisymmetric mhb && Rel.is_transitive mhb))

let prop_symmetry_of_cw_ow =
  QCheck.Test.make ~name:"CW and OW relations are symmetric" ~count:120
    Gen_progs.arbitrary_program (fun prog ->
      with_summary prog (fun _ s ->
          forall_pairs s.Relations.n (fun a b ->
              List.for_all
                (fun r -> Relations.holds s r a b = Relations.holds s r b a)
                [ Relations.MCW; Relations.CCW; Relations.MOW; Relations.COW ])))

let prop_mhb_agrees_with_reach =
  QCheck.Test.make ~name:"matrix MHB/CHB = reach engine decisions" ~count:80
    Gen_progs.arbitrary_program (fun prog ->
      with_summary prog (fun sk s ->
          let r = Reach.create sk in
          forall_pairs s.Relations.n (fun a b ->
              Relations.holds s Relations.MHB a b = Reach.must_before r a b
              && Relations.holds s Relations.CHB a b = Reach.exists_before r a b)))

let prop_reduced_equals_full =
  QCheck.Test.make
    ~name:"compute_reduced = compute (all fields that matter)" ~count:100
    Gen_progs.arbitrary_program (fun prog ->
      with_summary prog (fun sk s ->
          let r = Relations.compute_reduced sk in
          r.Relations.n = s.Relations.n
          && r.Relations.feasible_count = s.Relations.feasible_count
          && r.Relations.distinct_classes = s.Relations.distinct_classes
          && Rel.equal r.Relations.before_some s.Relations.before_some
          && Rel.equal r.Relations.comparable_some s.Relations.comparable_some
          && Rel.equal r.Relations.incomparable_some
               s.Relations.incomparable_some))

let prop_observed_dominates =
  QCheck.Test.make
    ~name:"pairs ordered in the pinned observed po are CHB in that direction"
    ~count:100 Gen_progs.arbitrary_program (fun prog ->
      with_summary prog (fun sk s ->
          let po =
            Pinned.po_of_schedule sk
              (Array.init sk.Skeleton.n Fun.id)
          in
          forall_pairs s.Relations.n (fun a b ->
              (not (Rel.mem po a b)) || Relations.holds s Relations.CHB a b)))

let suite =
  [
    Alcotest.test_case "quickstart matrix" `Quick test_quickstart_matrix;
    Alcotest.test_case "to_rel consistency" `Quick test_to_rel_consistency;
    Alcotest.test_case "limit truncation" `Quick test_limit_truncation;
    Alcotest.test_case "straight-line program" `Quick test_straightline_program;
    qcheck prop_must_implies_could;
    qcheck prop_partition;
    qcheck prop_mhb_antisymmetric;
    qcheck prop_symmetry_of_cw_ow;
    qcheck prop_mhb_agrees_with_reach;
    qcheck prop_reduced_equals_full;
    qcheck prop_observed_dominates;
  ]
