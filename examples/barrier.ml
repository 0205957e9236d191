(* A two-round barrier built from semaphores, checked with the ordering
   relations and the width machinery:

   - within a round, the workers' updates are mutually CCW (they can
     overlap — that is the parallelism the barrier permits);
   - across the barrier, every round-1 update MHB every round-2 update
     (that is the guarantee the barrier provides);
   - the width of the pinned order bounds how many events can be in
     flight at once. *)

let workers = 3

let source =
  (* Each worker: work round 1; signal arrival; wait for release; work
     round 2.  The coordinator collects all arrivals, then releases all. *)
  let worker i =
    Printf.sprintf
      "proc worker%d { r1_%d := 1; v(arrived); p(release); r2_%d := 1 }" i i i
  in
  let coordinator =
    Printf.sprintf "proc coord { %s %s }"
      (String.concat " "
         (List.init workers (fun _ -> "p(arrived);")))
      (String.concat " " (List.init workers (fun _ -> "v(release);")))
  in
  String.concat "\n"
    ("sem arrived = 0" :: "sem release = 0"
    :: List.init workers worker
    @ [ coordinator ])

let () =
  let program = Parse.program source in
  Format.printf "%a@." Ast.pp program;
  let trace = Interp.run program in
  assert (trace.Trace.outcome = Trace.Completed);
  let x = Trace.to_execution trace in
  let d = Decide.create x in
  let id l = (Trace.find_event trace l).Event.id in
  let r1 i = id (Printf.sprintf "r1_%d := 1" i) in
  let r2 i = id (Printf.sprintf "r2_%d := 1" i) in

  (* Within-round concurrency. *)
  for i = 0 to workers - 1 do
    for j = 0 to workers - 1 do
      if i <> j then begin
        assert (Decide.holds d Relations.CCW (r1 i) (r1 j));
        assert (Decide.holds d Relations.CCW (r2 i) (r2 j))
      end
    done
  done;
  Format.printf "within each round, all %d updates are pairwise CCW@." workers;

  (* Cross-barrier guarantee. *)
  for i = 0 to workers - 1 do
    for j = 0 to workers - 1 do
      assert (Decide.holds d Relations.MHB (r1 i) (r2 j))
    done
  done;
  Format.printf
    "across the barrier, every round-1 update MHB every round-2 update@.";

  (* Width: the maximum number of events that can be simultaneously in
     flight in the observed schedule class. *)
  let sk = Session.skeleton (Decide.session d) in
  let po = Pinned.po_of_schedule sk (Trace.schedule trace) in
  let width = Antichain.width po in
  Format.printf
    "width of the observed pinned order: %d (of %d events) — the barrier \
     caps the exploitable parallelism@."
    width (Trace.n_events trace)
