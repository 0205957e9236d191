(* The paper's Figure 1, end to end: the example program whose task graph
   (Emrath-Ghosh-Padua) misses an ordering enforced by a shared-data
   dependence.  Section 4's argument, executed. *)

let () =
  Format.printf "Figure 1 program fragment:@.%s@.@." Figure1.source;
  let trace = Figure1.trace () in
  Format.printf "Observed execution (first task runs to completion first):@.%a@."
    Trace.pp trace;

  let x = Trace.to_execution trace in
  let ev = Figure1.events trace in
  Format.printf "Shared-data dependence: 'x := 1' -> 'if (x = 1)': %b@.@."
    (Rel.mem x.Execution.dependences ev.Figure1.write_x ev.Figure1.test_x);

  let egp = Egp.build x in
  let d = Decide.create x in
  let show name a b =
    Format.printf "  %-22s exact MHB: %-5b  task graph: %b@." name
      (Decide.holds d Relations.MHB a b)
      (Egp.guaranteed_before egp a b)
  in
  Format.printf "Guaranteed orderings, exact engine vs task graph:@.";
  show "post1 -> post2" ev.Figure1.post1 ev.Figure1.post2;
  show "post1 -> wait3" ev.Figure1.post1 ev.Figure1.wait3;
  show "write_x -> post2" ev.Figure1.write_x ev.Figure1.post2;
  show "post1 -> write_x" ev.Figure1.post1 ev.Figure1.write_x;

  (* The paper's core claim about this figure, machine-checked: *)
  assert (Decide.holds d Relations.MHB ev.Figure1.post1 ev.Figure1.post2);
  assert (not (Egp.guaranteed_before egp ev.Figure1.post1 ev.Figure1.post2));
  Format.printf
    "@.The two posts cannot execute in either order (the dependence forces@.\
     post1 first), yet the task graph shows no path between them —@.\
     exactly the blind spot Section 4 describes.@."
