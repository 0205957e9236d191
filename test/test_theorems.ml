let qcheck = QCheck_alcotest.to_alcotest

let check_formula name formula =
  Alcotest.test_case name `Slow (fun () ->
      List.iter
        (fun check ->
          Alcotest.(check bool)
            (Format.asprintf "theorem %d on %a" check.Theorems.theorem Cnf.pp
               formula)
            true check.Theorems.agrees)
        (Theorems.check_all formula))

(* Small formulas exercising both truth values with 1-2 variables (larger
   instances explode — which is the theorem's own point). *)
let formulas =
  [
    ("tiny sat", Sat_gen.tiny_sat_3cnf ());
    ("tiny unsat", Sat_gen.tiny_unsat_3cnf ());
    ("n1 sat negated", Cnf.make ~num_vars:1 [ [ -1; -1; -1 ] ]);
    ("n2 sat", Cnf.make ~num_vars:2 [ [ 1; 1; 2 ]; [ -1; -1; 2 ] ]);
    ("n2 unsat", Cnf.make ~num_vars:2 [ [ 1; 1; 1 ]; [ -1; -1; 2 ]; [ -2; -2; -2 ] ]);
  ]

(* Section 5.3: the reduction programs have no shared-data dependences, so
   deciding with dependences ignored gives the same answers.  We check by
   erasing D from the execution and re-deciding. *)
let test_section_5_3 () =
  List.iter
    (fun formula ->
      let red = Reduction_sem.build formula in
      let tr = Reduction_sem.trace red in
      let a, b = Reduction_sem.events_ab red tr in
      let x = Trace.to_execution tr in
      let x_no_d =
        { x with Execution.dependences = Rel.create (Execution.n_events x) }
      in
      let d1 = Decide.create x and d2 = Decide.create x_no_d in
      Alcotest.(check bool) "MHB same without D" (Decide.holds d1 Relations.MHB a b)
        (Decide.holds d2 Relations.MHB a b);
      Alcotest.(check bool) "CHB same without D" (Decide.holds d1 Relations.CHB b a)
        (Decide.holds d2 Relations.CHB b a))
    [ Sat_gen.tiny_sat_3cnf (); Sat_gen.tiny_unsat_3cnf () ]

(* The MOW/CCW variants of the theorems (Theorem 1's "similar reductions"):
   on this construction, a MOW b iff unsatisfiable and a CCW b iff
   satisfiable. *)
let test_mow_ccw_variants () =
  List.iter
    (fun (formula, satisfiable) ->
      let red = Reduction_sem.build formula in
      let tr = Reduction_sem.trace red in
      let a, b = Reduction_sem.events_ab red tr in
      let d = Decide.create (Trace.to_execution tr) in
      Alcotest.(check bool) "a MOW b iff unsat" (not satisfiable)
        (Decide.holds d Relations.MOW a b);
      Alcotest.(check bool) "a CCW b iff sat" satisfiable (Decide.holds d Relations.CCW a b))
    [ (Sat_gen.tiny_sat_3cnf (), true); (Sat_gen.tiny_unsat_3cnf (), false) ]

let random_tiny_3cnf =
  (* 1-2 variables, 1-2 clauses, literals drawn with repetition. *)
  QCheck.make
    ~print:(fun f -> Format.asprintf "%a" Cnf.pp f)
    QCheck.Gen.(
      int_range 1 2 >>= fun nv ->
      list_size (int_range 1 2)
        (list_repeat 3 (int_range 1 nv >>= fun v -> oneofl [ v; -v ]))
      >>= fun clauses -> return (Cnf.make ~num_vars:nv clauses))

let prop_theorem1_random =
  QCheck.Test.make ~name:"Theorem 1 on random tiny formulas" ~count:12
    random_tiny_3cnf (fun f -> (Theorems.check_theorem_1 f).Theorems.agrees)

let prop_theorem2_random =
  QCheck.Test.make ~name:"Theorem 2 on random tiny formulas" ~count:12
    random_tiny_3cnf (fun f -> (Theorems.check_theorem_2 f).Theorems.agrees)

let prop_theorem3_random =
  QCheck.Test.make ~name:"Theorem 3 on random tiny formulas" ~count:8
    random_tiny_3cnf (fun f -> (Theorems.check_theorem_3 f).Theorems.agrees)

let prop_theorem4_random =
  QCheck.Test.make ~name:"Theorem 4 on random tiny formulas" ~count:8
    random_tiny_3cnf (fun f -> (Theorems.check_theorem_4 f).Theorems.agrees)

let suite =
  List.map (fun (name, f) -> check_formula name f) formulas
  @ [
      Alcotest.test_case "section 5.3 (dependences ignored)" `Slow
        test_section_5_3;
      Alcotest.test_case "MOW/CCW variants" `Slow test_mow_ccw_variants;
      qcheck prop_theorem1_random;
      qcheck prop_theorem2_random;
      qcheck prop_theorem3_random;
      qcheck prop_theorem4_random;
    ]
