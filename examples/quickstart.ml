(* Quickstart: build a small program, observe one execution, and compute
   all six ordering relations of Table 1 exactly.

   The program is the paper's running situation in miniature: two workers
   synchronize through a semaphore while a third runs free, so some event
   pairs are ordered in every feasible execution, some only in this one, and
   some can run concurrently. *)

let source =
  {|
sem ready = 0

proc producer {
  x := 1
  v(ready)
}

proc consumer {
  p(ready)
  y := x
}

proc bystander {
  z := 42
}
|}

let () =
  let program = Parse.program source in
  Format.printf "=== Program ===@.%a@." Ast.pp program;

  (* One observed, sequentially consistent execution. *)
  let trace = Interp.run ~policy:(Sched.Random 7) program in
  Format.printf "=== Observed trace ===@.%a@." Trace.pp trace;

  let execution = Trace.to_execution trace in
  assert (Execution.is_valid execution);

  (* The set F(P) of feasible program executions, exhaustively. *)
  let skeleton = Skeleton.of_execution execution in
  let summary = Relations.compute_enumerated skeleton in
  Format.printf "=== Table 1 relations over F(P) ===@.%a@."
    Relations.pp_summary (summary, execution.Execution.events);

  (* A few spot checks, the readable way. *)
  let id label = (Trace.find_event trace label).Event.id in
  let decide = Decide.create execution in
  let show name v = Format.printf "%-34s %b@." name v in
  show "x:=1 MHB y:=x (through V/P):" (Decide.holds decide Relations.MHB (id "x := 1") (id "y := x"));
  show "z:=42 CCW y:=x (free bystander):" (Decide.holds decide Relations.CCW (id "z := 42") (id "y := x"));
  show "y:=x CHB x:=1 (never):" (Decide.holds decide Relations.CHB (id "y := x") (id "x := 1"));
  Format.printf "feasible schedules: %d@."
    summary.Relations.feasible_count
