let sync_edges (sk : Skeleton.t) schedule =
  let edges = ref [] in
  let n_sems = Array.length sk.Skeleton.sem_init in
  let n_evs = Array.length sk.Skeleton.ev_init in
  (* Per semaphore: queue of unmatched completed V events, and remaining
     initial tokens.  The i-th P pairs with the (i - init)-th V.  On a
     binary semaphore a V arriving while a token is outstanding is absorbed
     and provides nothing. *)
  let unmatched_v = Array.make n_sems [] in
  let tokens = Array.copy sk.Skeleton.sem_init in
  (* Per event variable: is the variable currently set, and if so by which
     Post?  [trigger.(v) = Some p] records the {e earliest} Post since the
     last Clear — the post whose completion first made every later Wait
     enabled; later Posts in the same set-interval are redundant and can
     race with the Wait.  [None] with [set] true means the initial state is
     still in force and Waits need no trigger edge. *)
  let set_now = Array.copy sk.Skeleton.ev_init in
  let trigger = Array.make n_evs None in
  Array.iter
    (fun e ->
      match sk.Skeleton.kinds.(e) with
      | Event.Sync (Event.Sem_v s) ->
          if
            sk.Skeleton.sem_binary.(s)
            && tokens.(s) + List.length unmatched_v.(s) >= 1
          then () (* absorbed: the semaphore is already at 1 *)
          else unmatched_v.(s) <- unmatched_v.(s) @ [ e ]
      | Event.Sync (Event.Sem_p s) ->
          if tokens.(s) > 0 then tokens.(s) <- tokens.(s) - 1
          else begin
            match unmatched_v.(s) with
            | v :: rest ->
                edges := (v, e) :: !edges;
                unmatched_v.(s) <- rest
            | [] -> invalid_arg "Pinned: schedule is not feasible (P underflow)"
          end
      | Event.Sync (Event.Post v) ->
          if not set_now.(v) then trigger.(v) <- Some e;
          set_now.(v) <- true
      | Event.Sync (Event.Clear v) ->
          set_now.(v) <- false;
          trigger.(v) <- None
      | Event.Sync (Event.Wait v) ->
          if not set_now.(v) then
            invalid_arg "Pinned: schedule is not feasible (wait unset)";
          (match trigger.(v) with
          | Some p -> edges := (p, e) :: !edges
          | None -> () (* initial state: no ordering forced *))
      | Event.Computation | Event.Sync (Event.Fork | Event.Join) -> ())
    schedule;
  List.rev !edges

let po_of_schedule (sk : Skeleton.t) schedule =
  (try Replay.require sk schedule
   with Replay.Not_replayable m -> invalid_arg ("Pinned.po_of_schedule: " ^ m));
  let r = Rel.create sk.Skeleton.n in
  for b = 0 to sk.Skeleton.n - 1 do
    List.iter (fun a -> Rel.add r a b) sk.Skeleton.po_preds.(b);
    List.iter (fun a -> Rel.add r a b) sk.Skeleton.dep_preds.(b)
  done;
  List.iter (fun (a, b) -> Rel.add r a b) (sync_edges sk schedule);
  Rel.transitive_closure_in_place r;
  r
