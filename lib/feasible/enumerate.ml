exception Stop

(* Mutable search state shared by all entry points. *)
type search = {
  sk : Skeleton.t;
  n : int;
  pending : int array;  (* outstanding (po + dep) predecessors per event *)
  succs : int array array;  (* inverse of the pending edges *)
  done_ : bool array;
  sem : int array;
  ev : bool array;
  schedule : int array;
  frontier : Bitset.t;
      (* invariant: e ∈ frontier ⇔ ¬done_(e) ∧ pending(e) = 0 — the
         structurally-ready set, maintained incrementally by
         [execute]/[undo] so no search node rescans all n events *)
}

let make_search (sk : Skeleton.t) =
  let n = sk.Skeleton.n in
  let pending = Array.make n 0 in
  let degree = Array.make n 0 in
  for e = 0 to n - 1 do
    let preds = sk.Skeleton.po_preds.(e) @ sk.Skeleton.dep_preds.(e) in
    pending.(e) <- List.length preds;
    List.iter (fun p -> degree.(p) <- degree.(p) + 1) preds
  done;
  let succs = Array.init n (fun p -> Array.make degree.(p) 0) in
  let filled = Array.make n 0 in
  for e = 0 to n - 1 do
    List.iter
      (fun p ->
        succs.(p).(filled.(p)) <- e;
        filled.(p) <- filled.(p) + 1)
      (sk.Skeleton.po_preds.(e) @ sk.Skeleton.dep_preds.(e))
  done;
  let frontier = Bitset.create n in
  for e = 0 to n - 1 do
    if pending.(e) = 0 then Bitset.add frontier e
  done;
  {
    sk;
    n;
    pending;
    succs;
    done_ = Array.make n false;
    sem = Array.copy sk.Skeleton.sem_init;
    ev = Array.copy sk.Skeleton.ev_init;
    schedule = Array.make n (-1);
    frontier;
  }

let sync_enabled st e =
  match st.sk.Skeleton.kinds.(e) with
  | Event.Computation | Event.Sync (Event.Fork | Event.Join)
  | Event.Sync (Event.Sem_v _)
  | Event.Sync (Event.Post _)
  | Event.Sync (Event.Clear _) ->
      true
  | Event.Sync (Event.Sem_p s) -> st.sem.(s) > 0
  | Event.Sync (Event.Wait v) -> st.ev.(v)

let ready st e = (not st.done_.(e)) && st.pending.(e) = 0 && sync_enabled st e

(* Applies event [e]'s effect and returns the undo token. *)
let execute st e =
  st.done_.(e) <- true;
  Bitset.remove st.frontier e;
  let succs = st.succs.(e) in
  for i = 0 to Array.length succs - 1 do
    let s = succs.(i) in
    let p = st.pending.(s) - 1 in
    st.pending.(s) <- p;
    if p = 0 then Bitset.add st.frontier s
  done;
  match st.sk.Skeleton.kinds.(e) with
  | Event.Sync (Event.Sem_p s) ->
      st.sem.(s) <- st.sem.(s) - 1;
      `None
  | Event.Sync (Event.Sem_v s) ->
      let old = st.sem.(s) in
      (* Binary semaphores absorb a V when already at 1. *)
      if st.sk.Skeleton.sem_binary.(s) then st.sem.(s) <- 1
      else st.sem.(s) <- old + 1;
      `Sem (s, old)
  | Event.Sync (Event.Post v) ->
      let old = st.ev.(v) in
      st.ev.(v) <- true;
      `Ev (v, old)
  | Event.Sync (Event.Clear v) ->
      let old = st.ev.(v) in
      st.ev.(v) <- false;
      `Ev (v, old)
  | Event.Computation | Event.Sync (Event.Fork | Event.Join | Event.Wait _) ->
      `None

let undo st e token =
  st.done_.(e) <- false;
  Bitset.add st.frontier e;
  let succs = st.succs.(e) in
  for i = 0 to Array.length succs - 1 do
    let s = succs.(i) in
    if st.pending.(s) = 0 then Bitset.remove st.frontier s;
    st.pending.(s) <- st.pending.(s) + 1
  done;
  (match st.sk.Skeleton.kinds.(e) with
  | Event.Sync (Event.Sem_p s) -> st.sem.(s) <- st.sem.(s) + 1
  | _ -> ());
  match token with
  | `Sem (s, old) -> st.sem.(s) <- old
  | `Ev (v, old) -> st.ev.(v) <- old
  | `None -> ()

(* The seed search: scan all n events at every node.  Kept as the
   EO_ENGINE=naive oracle for differential tests.  [stats] counters are
   engine-relative: the naive scan pops all n candidates per node where
   the packed one pops only frontier members. *)
let iter_naive_from ~stats ~budget st depth0 limit f =
  let found = ref 0 in
  let rec go depth =
    if depth = st.n then begin
      Counters.bump stats Counters.Enum_schedules;
      incr found;
      f st.schedule;
      match limit with
      | Some l when !found >= l ->
          Counters.bump stats Counters.Limit_truncations;
          raise Stop
      | _ -> ()
    end
    else begin
      Counters.bump stats Counters.Enum_nodes;
      if Budget.poll_node budget then begin
        Counters.bump stats Counters.Timeout_expirations;
        raise Stop
      end;
      for e = 0 to st.n - 1 do
        Counters.bump stats Counters.Enum_pops;
        if ready st e then begin
          let token = execute st e in
          st.schedule.(depth) <- e;
          go (depth + 1);
          undo st e token
        end
      done
    end
  in
  (try go depth0 with Stop -> ());
  !found

(* The packed search: walk the maintained frontier with [min_elt_from]
   instead of rescanning.  [execute]/[undo] bracket each recursion, so at
   the point we ask for the next candidate the frontier is restored —
   resuming from [e + 1] visits exactly the events the naive scan visits,
   in the same order. *)
let iter_packed_from ~stats ~budget st depth0 limit f =
  let found = ref 0 in
  let rec go depth =
    if depth = st.n then begin
      Counters.bump stats Counters.Enum_schedules;
      incr found;
      f st.schedule;
      match limit with
      | Some l when !found >= l ->
          Counters.bump stats Counters.Limit_truncations;
          raise Stop
      | _ -> ()
    end
    else begin
      Counters.bump stats Counters.Enum_nodes;
      if Budget.poll_node budget then begin
        Counters.bump stats Counters.Timeout_expirations;
        raise Stop
      end;
      let e = ref (Bitset.min_elt_from st.frontier 0) in
      while !e >= 0 do
        let ev = !e in
        Counters.bump stats Counters.Enum_pops;
        if sync_enabled st ev then begin
          let token = execute st ev in
          st.schedule.(depth) <- ev;
          go (depth + 1);
          undo st ev token
        end;
        e := Bitset.min_elt_from st.frontier (ev + 1)
      done
    end
  in
  (try go depth0 with Stop -> ());
  !found

let iter ?limit ?(stats = Counters.null) ?(budget = Budget.unlimited)
    ?(engine = Engine.current ()) sk f =
  let st = make_search sk in
  (* Enumeration has no SAT formulation: under [Engine.Sat] the packed
     search does the walking while per-pair queries go through the
     encoder (see [Session]). *)
  match engine with
  | Engine.Naive -> iter_naive_from ~stats ~budget st 0 limit f
  | Engine.Packed | Engine.Sat | Engine.Auto ->
      iter_packed_from ~stats ~budget st 0 limit f

let count ?limit ?stats ?budget sk = iter ?limit ?stats ?budget sk (fun _ -> ())

let all ?limit sk =
  let acc = ref [] in
  let (_ : int) = iter ?limit sk (fun s -> acc := Array.copy s :: !acc) in
  List.rev !acc

let exists sk pred =
  let found = ref false in
  let (_ : int) =
    iter sk (fun s ->
        if pred s then begin
          found := true;
          raise Stop
        end)
  in
  !found

let first sk =
  let result = ref None in
  let (_ : int) =
    iter sk (fun s ->
        result := Some (Array.copy s);
        raise Stop)
  in
  !result

(* Replays [prefix] into a fresh search state (no undo: the state is
   discarded with the search).  Raises if the prefix is not feasible. *)
let push_prefix st prefix =
  Array.iteri
    (fun i e ->
      if not (ready st e) then
        invalid_arg "Enumerate: prefix event is not ready";
      let (_ : [ `Sem of int * int | `Ev of int * bool | `None ]) =
        execute st e
      in
      st.schedule.(i) <- e)
    prefix

let iter_from ?limit ?(stats = Counters.null) ?(budget = Budget.unlimited) sk
    ~prefix f =
  let st = make_search sk in
  (* The replay is bookkeeping, not search work — it stays uncounted so
     per-task counters sum to exactly the sequential totals. *)
  push_prefix st prefix;
  iter_packed_from ~stats ~budget st (Array.length prefix) limit f

(* Interior nodes strictly above [depth] are counted here (when [stats]
   is enabled); the nodes at [depth] itself belong to the subtree tasks
   and are counted by [iter_from].  Together the split walk plus the
   workers bump exactly the nodes the sequential search bumps. *)
let feasible_prefixes ?(stats = Counters.null) ?(budget = Budget.unlimited) sk
    ~depth =
  let st = make_search sk in
  if depth < 0 || depth > st.n then invalid_arg "Enumerate.feasible_prefixes";
  let acc = ref [] in
  let rec go d =
    if d = depth then acc := Array.sub st.schedule 0 depth :: !acc
    else begin
      Counters.bump stats Counters.Enum_nodes;
      if Budget.poll_node budget then begin
        Counters.bump stats Counters.Timeout_expirations;
        raise Stop
      end;
      let e = ref (Bitset.min_elt_from st.frontier 0) in
      while !e >= 0 do
        let ev = !e in
        Counters.bump stats Counters.Enum_pops;
        if sync_enabled st ev then begin
          let token = execute st ev in
          st.schedule.(d) <- ev;
          go (d + 1);
          undo st ev token
        end;
        e := Bitset.min_elt_from st.frontier (ev + 1)
      done
    end
  in
  (try go 0 with Stop -> ());
  List.rev !acc

let exists_order ?(budget = Budget.unlimited) ?(engine = Engine.current ()) sk
    ~before ~after =
  if before = after then false
  else begin
    let st = make_search sk in
    let found = ref false in
    (* Prune any branch that schedules [after] while [before] is pending:
       such a prefix can never witness [before] < [after]. *)
    let admissible e = not (e = after && not st.done_.(before)) in
    let poll () = if Budget.poll_node budget then raise Stop in
    let rec go_naive depth =
      if depth = st.n then begin
        found := true;
        raise Stop
      end
      else begin
        poll ();
        for e = 0 to st.n - 1 do
          if ready st e && admissible e then begin
            let token = execute st e in
            go_naive (depth + 1);
            undo st e token
          end
        done
      end
    in
    let rec go_packed depth =
      if depth = st.n then begin
        found := true;
        raise Stop
      end
      else begin
        poll ();
        let e = ref (Bitset.min_elt_from st.frontier 0) in
        while !e >= 0 do
          let ev = !e in
          if sync_enabled st ev && admissible ev then begin
            let token = execute st ev in
            go_packed (depth + 1);
            undo st ev token
          end;
          e := Bitset.min_elt_from st.frontier (ev + 1)
        done
      end
    in
    (try
       match engine with
       | Engine.Naive -> go_naive 0
       | Engine.Packed | Engine.Sat | Engine.Auto -> go_packed 0
     with Stop -> ());
    !found
  end
