(* Two-process mutual exclusion from Post/Wait/Clear alone — the gadget at
   the heart of the Theorem 3/4 reductions.

   Each branch clears the other branch's event variable before waiting on
   its own: for both branches to get past their waits before the rescue
   posts, each wait would have to precede the other branch's clear, which
   is cyclic.  So at most one branch enters before the rescue — exactly the
   guarantee the reduction needs (at most one truth value guessed per
   variable in the first pass).  After the rescue re-posts both variables
   the loser proceeds too, and the two bodies can then even overlap; the
   exact engine sees all of this. *)

let source =
  {|
proc main {
  post(A)
  post(B)
  cobegin
    { clear(A); wait(B); in1 := 1 }
    { clear(B); wait(A); in2 := 1 }
  coend
}

proc rescue {
  go: skip
  post(A)
  post(B)
}
|}

let () =
  let program = Parse.program source in
  Format.printf "%a@." Ast.pp program;
  (* An observed execution in which branch 1 wins and branch 2 is rescued. *)
  let trace =
    Interp.run ~policy:(Sched.Replay [ 0; 0; 0; 2; 2; 2; 3; 1; 1; 1; 3; 3; 0 ])
      program
  in
  assert (trace.Trace.outcome = Trace.Completed);
  Format.printf "%a@." Trace.pp trace;

  let x = Trace.to_execution trace in
  let d = Decide.create x in
  let id label = (Trace.find_event trace label).Event.id in
  let in1 = id "in1 := 1" and in2 = id "in2 := 1" in
  let go = id "go" in

  (* No order between the bodies is forced: either branch can win, and
     after the rescue they can even overlap. *)
  Format.printf "in1 MHB in2 (is an order forced?):       %b@."
    (Decide.holds d Relations.MHB in1 in2);
  Format.printf "in1 CHB in2 (branch 1 can go first):     %b@."
    (Decide.holds d Relations.CHB in1 in2);
  Format.printf "in2 CHB in1 (branch 2 can go first):     %b@."
    (Decide.holds d Relations.CHB in2 in1);
  Format.printf "in1 CCW in2 (overlap after the rescue):  %b@."
    (Decide.holds d Relations.CCW in1 in2);

  (* The exclusion guarantee is about the first pass: count, over every
     feasible schedule, how often each body runs before the rescue — and
     check that they never both do. *)
  let sk = Session.skeleton (Decide.session d) in
  let wins_in1 = ref 0 and wins_in2 = ref 0 and both = ref 0 and total = ref 0 in
  let position = Array.make sk.Skeleton.n 0 in
  let (_ : int) =
    Enumerate.iter sk (fun schedule ->
        Array.iteri (fun i e -> position.(e) <- i) schedule;
        incr total;
        let w1 = position.(in1) < position.(go) in
        let w2 = position.(in2) < position.(go) in
        if w1 then incr wins_in1;
        if w2 then incr wins_in2;
        if w1 && w2 then incr both)
  in
  Format.printf
    "feasible schedules: %d; branch 1 enters before the rescue in %d of \
     them, branch 2 in %d, BOTH in %d@."
    !total !wins_in1 !wins_in2 !both;
  assert (!both = 0);
  Format.printf
    "mutual exclusion before the rescue holds in every feasible execution@."
