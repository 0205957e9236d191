(* Sound vector clocks over forced orderings only.  See order_clock.mli. *)

type t = {
  nprocs : int;
  pid_ix : int array; (* event -> dense process index *)
  lidx : int array; (* event -> program-order rank within its process *)
  clocks : int array; (* flat [n * nprocs] row per event *)
}

(* Memory gate: the flat clock matrix must stay modest even on
   million-event traces (16 processes * 10^6 events = 128 MB of ints). *)
let max_cells = 40_000_000

exception Inapplicable

(* Forced synchronization edges — orderings every feasible schedule of
   the same events must exhibit, read off uniqueness of the supplier:
   - a semaphore starting at 0 whose only V must precede every P on it
     (binary or counting alike: there is no other token source);
   - an event variable starting false with exactly one Post and no
     Clear: the Post must precede every Wait (nothing else can set the
     flag, and nothing ever unsets it). *)
let forced_preds ~kinds ~sem_init ~sem_binary:_ ~ev_init =
  let n = Array.length kinds in
  let n_sems = Array.length sem_init in
  let n_evs = Array.length ev_init in
  let sem_vs = Array.make n_sems [] in
  let sem_ps = Array.make n_sems [] in
  let ev_posts = Array.make n_evs [] in
  let ev_waits = Array.make n_evs [] in
  let ev_clears = Array.make n_evs 0 in
  for e = 0 to n - 1 do
    match kinds.(e) with
    | Event.Sync (Event.Sem_v s) -> sem_vs.(s) <- e :: sem_vs.(s)
    | Event.Sync (Event.Sem_p s) -> sem_ps.(s) <- e :: sem_ps.(s)
    | Event.Sync (Event.Post v) -> ev_posts.(v) <- e :: ev_posts.(v)
    | Event.Sync (Event.Wait v) -> ev_waits.(v) <- e :: ev_waits.(v)
    | Event.Sync (Event.Clear v) -> ev_clears.(v) <- ev_clears.(v) + 1
    | _ -> ()
  done;
  let preds = Array.make n [] in
  Array.iteri
    (fun s vs ->
      match (sem_init.(s), vs) with
      | 0, [ v ] -> List.iter (fun p -> preds.(p) <- v :: preds.(p)) sem_ps.(s)
      | _ -> ())
    sem_vs;
  Array.iteri
    (fun v posts ->
      match (ev_init.(v), posts, ev_clears.(v)) with
      | false, [ p ], 0 ->
          List.iter (fun w -> preds.(w) <- p :: preds.(w)) ev_waits.(v)
      | _ -> ())
    ev_posts;
  preds

let dense_pids pids =
  let pid_map = Hashtbl.create 16 in
  let pid_ix =
    Array.map
      (fun p ->
        match Hashtbl.find_opt pid_map p with
        | Some i -> i
        | None ->
            let i = Hashtbl.length pid_map in
            Hashtbl.add pid_map p i;
            i)
      pids
  in
  (Hashtbl.length pid_map, pid_ix)

let build ~pids ~kinds ~po_preds ?extra_preds ~sem_init ~sem_binary ~ev_init ()
    =
  let n = Array.length pids in
  try
    let nprocs, pid_ix = dense_pids pids in
    let np = max 1 nprocs in
    if n * np > max_cells then raise Inapplicable;
    let forced = forced_preds ~kinds ~sem_init ~sem_binary ~ev_init in
    (* Event ids must be a topological order of the enforced edges (true
       of any recorded trace: ids are assigned in execution order). *)
    let fwd p e = if p >= e then raise Inapplicable in
    let lidx = Array.make n 0 in
    let next_lidx = Array.make np 0 in
    let clocks = Array.make (n * np) 0 in
    for e = 0 to n - 1 do
      let base = e * np in
      let join p =
        fwd p e;
        let pb = p * np in
        for i = 0 to np - 1 do
          let v = Array.unsafe_get clocks (pb + i) in
          if v > Array.unsafe_get clocks (base + i) then
            Array.unsafe_set clocks (base + i) v
        done
      in
      List.iter join (po_preds e);
      (match extra_preds with
      | Some f -> List.iter join (f e)
      | None -> ());
      List.iter join forced.(e);
      let pi = pid_ix.(e) in
      lidx.(e) <- next_lidx.(pi);
      next_lidx.(pi) <- next_lidx.(pi) + 1;
      (* Soundness of the per-process clock component requires each
         process's events to be totally ordered by the enforced edges;
         after the join, the own component must already count every
         earlier same-process event. *)
      if clocks.(base + pi) <> lidx.(e) then raise Inapplicable;
      clocks.(base + pi) <- lidx.(e) + 1
    done;
    Some { nprocs = np; pid_ix; lidx; clocks }
  with Inapplicable -> None

let ordered t a b =
  a <> b && t.clocks.((b * t.nprocs) + t.pid_ix.(a)) >= t.lidx.(a) + 1

let of_skeleton ?(with_deps = true) (sk : Skeleton.t) =
  let pids = Array.map (fun e -> e.Event.pid) sk.Skeleton.execution.events in
  build ~pids ~kinds:sk.Skeleton.kinds
    ~po_preds:(fun e -> sk.Skeleton.po_preds.(e))
    ?extra_preds:
      (if with_deps then Some (fun e -> sk.Skeleton.dep_preds.(e)) else None)
    ~sem_init:sk.Skeleton.sem_init ~sem_binary:sk.Skeleton.sem_binary
    ~ev_init:sk.Skeleton.ev_init ()

let mhb_decider t =
  Approx.make ~name:"order_clock" ~relation:"mhb" ~direction:Approx.Positive
    (fun a b -> if ordered t a b then Approx.Proved else Approx.Unknown)
