let qcheck = QCheck_alcotest.to_alcotest

let roundtrip t =
  let t' = Trace_io.of_string (Trace_io.to_string t) in
  t'.Trace.events = t.Trace.events
  && Rel.equal t'.Trace.program_order t.Trace.program_order
  && t'.Trace.outcome = t.Trace.outcome
  && t'.Trace.var_names = t.Trace.var_names
  && t'.Trace.sem_names = t.Trace.sem_names
  && t'.Trace.sem_binary = t.Trace.sem_binary
  && t'.Trace.ev_names = t.Trace.ev_names
  && t'.Trace.sem_init = t.Trace.sem_init
  && t'.Trace.ev_init = t.Trace.ev_init
  && t'.Trace.final_store = t.Trace.final_store
  && t'.Trace.process_names = t.Trace.process_names

let test_roundtrip_fixtures () =
  List.iter
    (fun src ->
      let t = Interp.run (Parse.program src) in
      Alcotest.(check bool) ("roundtrip: " ^ src) true (roundtrip t))
    [
      "proc a { x := 1 }\nproc b { y := x }";
      "sem s = 1\nbinsem t = 0\nproc a { p(s); v(t) }\nproc b { p(t); v(s) }";
      "proc main { cobegin { post(e) } { wait(e); clear(e) } coend }";
      "proc main { l: skip; if 1 = 1 { x := 1 } else { skip } }";
      (* Deadlocking program: outcome must round-trip too. *)
      "sem s = 0\nproc a { p(s) }";
    ]

let test_label_quoting () =
  let t =
    Interp.run (Parse.program "proc a { weird := 1 + 2 * 3 }")
  in
  Alcotest.(check bool) "labels with spaces survive" true (roundtrip t);
  (* A label with embedded quotes/backslashes via the event constructor. *)
  let e =
    Event.make ~id:0 ~pid:0 ~seq:0 ~kind:Event.Computation
      ~label:"say \"hi\" \\ there\nnewline" ()
  in
  let t =
    {
      Trace.events = [| e |];
      program_order = Rel.create 1;
      outcome = Trace.Completed;
      violations = [];
      var_names = [||];
      sem_names = [||];
      ev_names = [||];
      sem_init = [||];
      sem_binary = [||];
      ev_init = [||];
      final_store = [];
      process_names = [ (0, "p") ];
    }
  in
  Alcotest.(check bool) "escapes survive" true (roundtrip t)

let test_analysis_equivalence () =
  (* The analysis of a reloaded trace matches the original. *)
  let t = Interp.run (Parse.program
    "sem s = 0\nproc a { x := 1; v(s) }\nproc b { p(s); y := x }") in
  let t' = Trace_io.of_string (Trace_io.to_string t) in
  let s = Relations.compute_enumerated (Skeleton.of_execution (Trace.to_execution t)) in
  let s' = Relations.compute_enumerated (Skeleton.of_execution (Trace.to_execution t')) in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Relations.relation_name r)
        true
        (Rel.equal (Relations.to_rel s r) (Relations.to_rel s' r)))
    Relations.all_relations

let expect_failure name text =
  Alcotest.test_case name `Quick (fun () ->
      match Trace_io.of_string text with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected parse failure")

let prop_random_roundtrip =
  QCheck.Test.make ~name:"random program traces roundtrip" ~count:100
    Gen_progs.arbitrary_program (fun prog ->
      roundtrip (Interp.run prog))

(* ------------------------------------------------------------------ *)
(* The in-place scanner against the list-tokenizer oracle, and the
   readers against mutated input. *)

let outcome f = match f () with v -> Ok v | exception Failure m -> Error m

let same_as_oracle ~lineno line =
  outcome (fun () -> Trace_io.parse_line ~lineno line)
  = outcome (fun () -> Trace_io_oracle.parse_line ~lineno line)

(* Lines at the grammar's corners: comments against quotes, escapes,
   tabs, quoted keywords, operand counts, signs and integers at and
   past the 63-bit range. *)
let tricky_lines =
  [
    "";
    "   ";
    "# only a comment";
    "eotrace 1";
    "eotrace 1 # trailing comment";
    "eotrace\t1";
    "\teotrace 1\t";
    "eotrace \"1\"";
    "eotrace 1 2";
    "outcome completed extra";
    "outcome fuel_exhausted";
    "outcome deadlocked";
    "outcome deadlocked 1 -2 +3";
    "outcome deadlocked 1 x";
    "vars \"a b\" c";
    "sems s* * \"\" t**";
    "ev_init 1 0 \"1\" 01";
    "sem_init 1 0x1f 1_000 -0";
    "sem_init 4611686018427387903 -4611686018427387904";
    "sem_init 4611686018427387904";
    "sem_init 9999999999999999999";
    "event 0 0 0 sem_p";
    "event 0 0 0 sem_p x \"l\" reads writes";
    "event 0 0 0 computation \"l\" reads 1 2 writes 3";
    "event 0 0 0 computation \"a\\\"b\\\\c\\n\" reads writes";
    "event a b c computation \"l\" reads writes";
    "event 0 0";
    "event 0 0 0 zap \"l\" reads writes";
    "event 0 0 0 computation";
    "event 0 0 0 computation \"l\"";
    "event 0 0 0 computation \"l\" reads 1 x writes";
    "event 0 0 0 computation \"l\" reads 1 2";
    "event 0 0 0 computation \"l\" writes";
    "event 0 0 0 computation \"l\"x reads writes";
    "event 0 0 0 fork \"#\" reads writes";
    "\"event\" 0 0 0 computation l \"reads\" \"writes\"";
    "event 0 0 0 computation \"unterminated";
    "event x 0 0 computation \"unterminated";
    "event 0 0 0 computation \"l\\";
    "x \"abc";
    "po 1 2";
    "po 1 2 3";
    "po a b";
    "po 1 2 # x";
    "po 1 2 # \"x\"";
    "po\t1 2";
    "process 0 \"a name\"";
    "process x";
    "violation 3";
    "violation";
    "final x 9999999999999999999";
    "final x y";
    "bogus 1";
  ]

let test_scanner_matches_oracle () =
  List.iteri
    (fun i line ->
      Alcotest.(check bool)
        (Printf.sprintf "%S" line)
        true
        (same_as_oracle ~lineno:(i + 1) line))
    tricky_lines

(* Byte edits drawn from the same corners, and renumberings that point
   ids, operands and variables past what the trace declares. *)
type edit =
  | Insert of int * string
  | Replace of int * string
  | Delete of int
  | Renumber of int * int  (** the [k]-th run of digits becomes [v] *)

let pieces =
  [ "#"; "\""; "\\"; "\t"; " "; "-"; "+"; "_"; "*"; "1"; "0x1f"; "\\n";
    "9999999999999999999"; "4611686018427387903"; "4611686018427387904";
    "-4611686018427387904"; "reads"; "writes"; "  \t " ]

let edit_gen =
  QCheck.Gen.(
    let pos = int_bound 200 and piece = oneofl pieces in
    frequency
      [
        (3, map2 (fun p s -> Insert (p, s)) pos piece);
        (3, map2 (fun p s -> Replace (p, s)) pos piece);
        (2, map (fun p -> Delete p) pos);
        ( 4,
          map2
            (fun k v -> Renumber (k, v))
            (int_bound 20)
            (oneofl [ -1; 0; 1; 2; 3; 7; 12; 40 ]) );
      ])

let apply_edit line edit =
  let n = String.length line in
  let splice p cut s =
    String.sub line 0 p ^ s ^ String.sub line (p + cut) (n - p - cut)
  in
  let is_digit i = line.[i] >= '0' && line.[i] <= '9' in
  let rec runs i acc =
    if i >= n then List.rev acc
    else if is_digit i && (i = 0 || not (is_digit (i - 1))) then begin
      let j = ref i in
      while !j < n && is_digit !j do incr j done;
      runs !j ((i, !j - i) :: acc)
    end
    else runs (i + 1) acc
  in
  match edit with
  | Insert (p, s) -> splice (p mod (n + 1)) 0 s
  | Replace (p, s) when n > 0 -> splice (p mod n) 1 s
  | Delete p when n > 0 -> splice (p mod n) 1 ""
  | Renumber (k, v) -> (
      match runs 0 [] with
      | [] -> line
      | found ->
          let p, len = List.nth found (k mod List.length found) in
          splice p len (string_of_int v))
  | Replace _ | Delete _ -> line

let trace_lines prog =
  String.split_on_char '\n' (Trace_io.to_string (Interp.run prog))

let arbitrary_mutated_lines =
  QCheck.make
    ~print:(fun lines -> String.concat "\n" (List.map (Printf.sprintf "%S") lines))
    QCheck.Gen.(
      Gen_progs.program_gen >>= fun prog ->
      flatten_l
        (List.map
           (fun line ->
             list_size (int_bound 3) edit_gen >|= fun edits ->
             List.fold_left apply_edit line edits)
           (trace_lines prog)))

let prop_scanner_matches_oracle =
  QCheck.Test.make
    ~name:"parse_line = the list-tokenizer oracle on mutated trace lines"
    ~count:300 arbitrary_mutated_lines (fun lines ->
      List.for_all Fun.id
        (List.mapi (fun i line -> same_as_oracle ~lineno:(i + 1) line) lines))

(* Whole traces with a few lines edited, dropped or repeated. *)
let arbitrary_mutated_trace =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      Gen_progs.program_gen >>= fun prog ->
      let lines = Array.of_list (trace_lines prog) in
      let line_edit =
        frequency
          [
            ( 6,
              map2
                (fun i edits lines ->
                  let i = i mod Array.length lines in
                  lines.(i) <- List.fold_left apply_edit lines.(i) edits;
                  lines)
                (int_bound 1000)
                (list_size (int_range 1 2) edit_gen) );
            ( 1,
              map
                (fun i lines ->
                  let i = i mod Array.length lines in
                  Array.append (Array.sub lines 0 i)
                    (Array.sub lines (i + 1) (Array.length lines - i - 1)))
                (int_bound 1000) );
            ( 1,
              map
                (fun i lines ->
                  let i = i mod Array.length lines in
                  Array.append lines [| lines.(i) |])
                (int_bound 1000) );
          ]
      in
      list_size (int_range 1 2) line_edit >|= fun edits ->
      String.concat "\n"
        (Array.to_list (List.fold_left (fun ls f -> f ls) lines edits)))

let with_temp_file content f =
  let path = Filename.temp_file "eo_trace_io_test" ".eotrace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc content;
      close_out oc;
      f path)

let prop_readers_fail_typed =
  QCheck.Test.make
    ~name:"mutated traces: readers agree, fail with Failure or analyse"
    ~count:1000 arbitrary_mutated_trace (fun text ->
      let from_string = outcome (fun () -> Trace_io.of_string text) in
      with_temp_file text (fun path ->
          match
            ( from_string,
              outcome (fun () -> Trace_io.load path),
              outcome (fun () -> Bigtrace.read path) )
          with
          | Error m, Error m', Error m'' -> m = m' && m' = m''
          | Ok tr, Ok tr', Ok big ->
              let x = Trace.to_execution tr in
              ignore (Relations.compute_enumerated (Skeleton.of_execution x));
              ignore (Triage.races_big big);
              tr'.Trace.events = tr.Trace.events
              && Rel.equal tr'.Trace.program_order tr.Trace.program_order
              && Bigtrace.to_trace big = tr'
          | _ -> false))

let suite =
  [
    Alcotest.test_case "fixture roundtrips" `Quick test_roundtrip_fixtures;
    Alcotest.test_case "label quoting" `Quick test_label_quoting;
    Alcotest.test_case "analysis equivalence" `Quick test_analysis_equivalence;
    expect_failure "missing header" "outcome completed\n";
    expect_failure "bad version" "eotrace 2\noutcome completed\n";
    expect_failure "unknown directive" "eotrace 1\noutcome completed\nbogus 1\n";
    expect_failure "missing outcome" "eotrace 1\nvars\n";
    expect_failure "bad event kind"
      "eotrace 1\noutcome completed\nevent 0 0 0 zap \"l\" reads writes\n";
    expect_failure "non-dense ids"
      "eotrace 1\noutcome completed\nevent 1 0 0 computation \"l\" reads writes\n";
    expect_failure "po edge past the last event"
      "eotrace 1\noutcome completed\nevent 0 0 0 computation \"l\" reads writes\npo 0 1\n";
    expect_failure "undeclared semaphore"
      "eotrace 1\noutcome completed\nsems s\nsem_init 0\nevent 0 0 0 sem_p 7 \"P\" reads writes\n";
    expect_failure "undeclared event variable"
      "eotrace 1\noutcome completed\nevent 0 0 0 wait 0 \"W\" reads writes\n";
    expect_failure "sem_init shorter than sems"
      "eotrace 1\noutcome completed\nsems s t\nsem_init 0\n";
    expect_failure "ev_init shorter than events"
      "eotrace 1\noutcome completed\nevents e\n";
    expect_failure "undeclared variable"
      "eotrace 1\noutcome completed\nvars x\nevent 0 0 0 computation \"l\" reads 1 writes\n";
    qcheck prop_random_roundtrip;
    Alcotest.test_case "scanner = oracle on tricky lines" `Quick
      test_scanner_matches_oracle;
    qcheck prop_scanner_matches_oracle;
    qcheck prop_readers_fail_typed;
  ]
