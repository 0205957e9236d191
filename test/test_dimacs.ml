let sample = "c a comment\np cnf 3 2\n1 -2 3 0\nc mid comment\n-1 2 0\n"

let test_parse () =
  let f = Dimacs.parse sample in
  Alcotest.(check int) "vars" 3 f.Cnf.num_vars;
  Alcotest.(check int) "clauses" 2 (Cnf.num_clauses f);
  Alcotest.(check bool) "first clause" true
    (List.mem [ 1; -2; 3 ] f.Cnf.clauses)

let test_clause_spanning_lines () =
  let f = Dimacs.parse "p cnf 3 1\n1\n-2\n3 0\n" in
  Alcotest.(check bool) "clause assembled" true
    (f.Cnf.clauses = [ [ 1; -2; 3 ] ])

let test_roundtrip () =
  let f = Sat_gen.random_3cnf ~seed:9 ~num_vars:6 ~num_clauses:12 in
  let f' = Dimacs.parse (Dimacs.to_string f) in
  Alcotest.(check bool) "clauses preserved" true (f.Cnf.clauses = f'.Cnf.clauses);
  Alcotest.(check int) "vars preserved" f.Cnf.num_vars f'.Cnf.num_vars

(* Tab-separated files and [p\tcnf] headers are common in the wild: any
   ASCII whitespace must separate fields, not just the space character. *)
let test_tab_separated () =
  let f = Dimacs.parse "p\tcnf\t3\t2\n1\t-2\t3\t0\n-1\t 2 \t0\r\n" in
  Alcotest.(check int) "vars" 3 f.Cnf.num_vars;
  Alcotest.(check bool) "clauses" true
    (f.Cnf.clauses = [ [ 1; -2; 3 ]; [ -1; 2 ] ])

(* SATLIB benchmark files end with a "%" marker followed by a lone "0";
   everything after the marker must be ignored. *)
let test_percent_end_marker () =
  let f = Dimacs.parse "p cnf 2 1\n1 -2 0\n%\n0\n\nthis is not dimacs\n" in
  Alcotest.(check bool) "clauses before the marker kept" true
    (f.Cnf.clauses = [ [ 1; -2 ] ]);
  (* The marker must not hide a missing header or an open clause. *)
  (match Dimacs.parse "p cnf 2 1\n1 -2\n%\n0\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "open clause at the marker should fail");
  match Dimacs.parse "%\n0\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "marker without header should fail"

let expect_failure name input =
  Alcotest.test_case name `Quick (fun () ->
      match Dimacs.parse input with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected parse failure")

(* Malformed input raises [Failure] and nothing else, with a message
   that names the line: the CLI maps exactly [Failure] to a typed parse
   error. *)
let test_only_failure () =
  List.iter
    (fun (input, message) ->
      match Dimacs.parse input with
      | exception Failure m -> Alcotest.(check string) input message m
      | exception e ->
          Alcotest.failf "%S raised %s" input (Printexc.to_string e)
      | _ -> Alcotest.failf "%S parsed" input)
    [
      ("p cnf 2 1\n1 x 0\n", "line 2: non-integer literal \"x\"");
      ("p cnf 2 1\n3 0\n", "line 2: literal 3 out of range (2 variables)");
      ("p cnf 2 1\n-3 0\n", "line 2: literal -3 out of range (2 variables)");
      ( "p cnf 2 1\n-4611686018427387904 0\n",
        "line 2: literal -4611686018427387904 out of range (2 variables)" );
      ("p cnf -1 0\n", "line 1: malformed header numbers");
      ("p cnf 2 2\n1 0\n", "the header declares 2 clauses, the file has 1");
    ]

let suite =
  [
    Alcotest.test_case "parse" `Quick test_parse;
    Alcotest.test_case "clause spanning lines" `Quick test_clause_spanning_lines;
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "tab-separated fields" `Quick test_tab_separated;
    Alcotest.test_case "% end-of-file marker" `Quick test_percent_end_marker;
    expect_failure "missing header" "1 2 0\n";
    expect_failure "bad header" "p cnf x y\n";
    expect_failure "unterminated clause" "p cnf 2 1\n1 2\n";
    expect_failure "wrong clause count" "p cnf 2 2\n1 0\n";
    expect_failure "duplicate header" "p cnf 1 0\np cnf 1 0\n";
    expect_failure "garbage token" "p cnf 1 1\none 0\n";
    Alcotest.test_case "only Failure, naming the line" `Quick test_only_failure;
  ]
