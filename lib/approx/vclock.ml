type t = {
  n : int;
  pid_of : int array;  (* event -> dense process index *)
  clocks : int array array;  (* per event, indexed by process index *)
}

let compute (sk : Skeleton.t) schedule =
  let events = sk.Skeleton.execution.Execution.events in
  let n = sk.Skeleton.n in
  (* A trace's pids are arbitrary integers (negative, or far apart): the
     clocks are as wide as the process count, not the largest pid. *)
  let n_pids, pid_of =
    Order_clock.dense_pids (Array.map (fun e -> e.Event.pid) events)
  in
  let clocks = Array.make n [||] in
  (* Incoming edges that transport clock values: program order plus the
     synchronization pairings realized by this schedule.  Shared-data
     dependences are deliberately excluded: vector clocks track
     synchronization, not data flow. *)
  let preds = Array.make n [] in
  for e = 0 to n - 1 do
    List.iter (fun p -> preds.(e) <- p :: preds.(e)) sk.Skeleton.po_preds.(e)
  done;
  List.iter (fun (a, b) -> preds.(b) <- a :: preds.(b))
    (Pinned.sync_edges sk schedule);
  Array.iter
    (fun e ->
      let clock = Array.make n_pids 0 in
      List.iter
        (fun p ->
          let pc = clocks.(p) in
          for i = 0 to n_pids - 1 do
            if pc.(i) > clock.(i) then clock.(i) <- pc.(i)
          done)
        preds.(e);
      clock.(pid_of.(e)) <- clock.(pid_of.(e)) + 1;
      clocks.(e) <- clock)
    schedule;
  { n; pid_of; clocks }

let observed (sk : Skeleton.t) =
  let schedule = Execution.schedule_of_temporal sk.Skeleton.execution in
  Replay.require sk schedule;
  compute sk schedule

let of_execution (x : Execution.t) = observed (Skeleton.of_execution x)

let clock t e = t.clocks.(e)

let hb t a b =
  a <> b && t.clocks.(a).(t.pid_of.(a)) <= t.clocks.(b).(t.pid_of.(a))

let concurrent t a b = a <> b && (not (hb t a b)) && not (hb t b a)

let hb_rel t =
  let r = Rel.create t.n in
  for a = 0 to t.n - 1 do
    for b = 0 to t.n - 1 do
      if hb t a b then Rel.add r a b
    done
  done;
  r

let chb_decider t =
  Approx.make ~name:"vclock" ~relation:"chb" ~direction:Approx.Positive
    (fun a b -> if hb t a b then Approx.Proved else Approx.Unknown)
