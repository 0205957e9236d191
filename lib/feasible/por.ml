let sync_object (sk : Skeleton.t) e =
  match sk.Skeleton.kinds.(e) with
  | Event.Sync (Event.Sem_p s | Event.Sem_v s) -> Some (`Sem s)
  | Event.Sync (Event.Post v | Event.Wait v | Event.Clear v) -> Some (`Ev v)
  | Event.Computation | Event.Sync (Event.Fork | Event.Join) -> None

let independent (sk : Skeleton.t) a b =
  let events = sk.Skeleton.execution.Execution.events in
  a <> b
  && events.(a).Event.pid <> events.(b).Event.pid
  && (match (sync_object sk a, sync_object sk b) with
     | Some oa, Some ob -> oa <> ob
     | _ -> true)
  && (not (List.mem a sk.Skeleton.dep_preds.(b)))
  && (not (List.mem b sk.Skeleton.dep_preds.(a)))
  && (not (List.mem a sk.Skeleton.po_preds.(b)))
  && not (List.mem b sk.Skeleton.po_preds.(a))

(* The n×n independence relation as a bit matrix, so the inner loop of the
   packed search tests one bit instead of four pred-list memberships.
   Symmetric, so row e is exactly { u | independent u e }. *)
let independence sk =
  let n = sk.Skeleton.n in
  let r = Rel.create n in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if independent sk a b then begin
        Rel.add r a b;
        Rel.add r b a
      end
    done
  done;
  r

exception Stop

(* The seed implementation: list-based sleep sets over the full ready
   scan.  Kept as the EO_ENGINE=naive oracle.  Pop counts are
   engine-relative (all n candidates per node); sleep-prune counts are
   not — both engines prune exactly the ready-but-asleep candidates, so
   those match the packed search bit for bit. *)
let iter_representatives_naive ?limit ~stats ~budget sk f =
  let st = Enumerate.make_search sk in
  let n = sk.Skeleton.n in
  let found = ref 0 in
  let rec go depth sleep =
    if depth = n then begin
      Counters.bump stats Counters.Por_reps;
      incr found;
      f st.Enumerate.schedule;
      match limit with
      | Some l when !found >= l ->
          Counters.bump stats Counters.Limit_truncations;
          raise Stop
      | _ -> ()
    end
    else begin
      Counters.bump stats Counters.Por_nodes;
      if Budget.poll_node budget then begin
        Counters.bump stats Counters.Timeout_expirations;
        raise Stop
      end;
      let explored = ref [] in
      for e = 0 to n - 1 do
        Counters.bump stats Counters.Por_pops;
        if Enumerate.ready st e then begin
          if List.mem e sleep then
            Counters.bump stats Counters.Por_sleep_prunes
          else begin
            Counters.bump stats Counters.Por_indep_refinements;
            let sleep' =
              List.filter (fun u -> independent sk u e) (sleep @ !explored)
            in
            let token = Enumerate.execute st e in
            st.Enumerate.schedule.(depth) <- e;
            go (depth + 1) sleep';
            Enumerate.undo st e token;
            explored := e :: !explored
          end
        end
      done
    end
  in
  (try go 0 [] with Stop -> ());
  !found

(* Per-depth scratch for the packed search: sleep and explored sets as
   bitsets, preallocated once so a search node allocates nothing. *)
type scratch = {
  st : Enumerate.search;
  indep : Rel.t;
  sleep : Bitset.t array;  (* sleep.(depth): events asleep at that node *)
  explored : Bitset.t array;  (* siblings already expanded at that node *)
}

let make_scratch sk =
  let n = sk.Skeleton.n in
  {
    st = Enumerate.make_search sk;
    indep = independence sk;
    sleep = Array.init (n + 1) (fun _ -> Bitset.create n);
    explored = Array.init (n + 1) (fun _ -> Bitset.create n);
  }

(* The packed recursion from [depth0].  Same visit order and same sleep
   semantics as the naive code: candidates ascend by event id, and the
   child's sleep set is (sleep ∪ explored) ∩ indep(e). *)
let go_packed sc limit found ~stats ~budget f depth0 =
  let st = sc.st in
  let n = st.Enumerate.n in
  let rec go depth =
    if depth = n then begin
      Counters.bump stats Counters.Por_reps;
      incr found;
      f st.Enumerate.schedule;
      match limit with
      | Some l when !found >= l ->
          Counters.bump stats Counters.Limit_truncations;
          raise Stop
      | _ -> ()
    end
    else begin
      Counters.bump stats Counters.Por_nodes;
      if Budget.poll_node budget then begin
        Counters.bump stats Counters.Timeout_expirations;
        raise Stop
      end;
      Bitset.clear sc.explored.(depth);
      let e = ref (Bitset.min_elt_from st.Enumerate.frontier 0) in
      while !e >= 0 do
        let ev = !e in
        Counters.bump stats Counters.Por_pops;
        if Enumerate.sync_enabled st ev then begin
          if Bitset.mem sc.sleep.(depth) ev then
            Counters.bump stats Counters.Por_sleep_prunes
          else begin
            Counters.bump stats Counters.Por_indep_refinements;
            let sleep' = sc.sleep.(depth + 1) in
            Bitset.copy_into ~dst:sleep' sc.sleep.(depth);
            Bitset.union_into sleep' sc.explored.(depth);
            Bitset.inter_into sleep' (Rel.successors sc.indep ev);
            let token = Enumerate.execute st ev in
            st.Enumerate.schedule.(depth) <- ev;
            go (depth + 1);
            Enumerate.undo st ev token;
            Bitset.add sc.explored.(depth) ev
          end
        end;
        e := Bitset.min_elt_from st.Enumerate.frontier (ev + 1)
      done
    end
  in
  go depth0

let iter_representatives_packed ?limit ~stats ~budget sk f =
  let sc = make_scratch sk in
  let found = ref 0 in
  (try go_packed sc limit found ~stats ~budget f 0 with Stop -> ());
  !found

let iter_representatives ?limit ?(stats = Counters.null)
    ?(budget = Budget.unlimited) ?(engine = Engine.current ()) sk f =
  match engine with
  | Engine.Naive -> iter_representatives_naive ?limit ~stats ~budget sk f
  | Engine.Packed | Engine.Sat | Engine.Auto ->
      iter_representatives_packed ?limit ~stats ~budget sk f

let count_representatives ?limit ?stats ?budget sk =
  iter_representatives ?limit ?stats ?budget sk (fun _ -> ())

(* ------------------------------------------------------------------ *)
(* Subtree tasks for Parallel                                          *)
(* ------------------------------------------------------------------ *)

type task = { prefix : int array; sleep : Bitset.t }

let tasks ?(stats = Counters.null) ?(budget = Budget.unlimited) sk ~depth =
  let n = sk.Skeleton.n in
  if depth < 0 || depth >= n then invalid_arg "Por.tasks";
  let sc = make_scratch sk in
  let st = sc.st in
  let acc = ref [] in
  (* The packed recursion, truncated at [depth]: each tree node reached
     there becomes one task carrying its prefix and sleep set.  As with
     [Enumerate.feasible_prefixes], interior work strictly above [depth]
     is counted here and the task nodes themselves by [iter_task]. *)
  let rec go d =
    if d = depth then
      acc :=
        { prefix = Array.sub st.Enumerate.schedule 0 depth;
          sleep = Bitset.copy sc.sleep.(depth) }
        :: !acc
    else begin
      Counters.bump stats Counters.Por_nodes;
      if Budget.poll_node budget then begin
        Counters.bump stats Counters.Timeout_expirations;
        raise Stop
      end;
      Bitset.clear sc.explored.(d);
      let e = ref (Bitset.min_elt_from st.Enumerate.frontier 0) in
      while !e >= 0 do
        let ev = !e in
        Counters.bump stats Counters.Por_pops;
        if Enumerate.sync_enabled st ev then begin
          if Bitset.mem sc.sleep.(d) ev then
            Counters.bump stats Counters.Por_sleep_prunes
          else begin
            Counters.bump stats Counters.Por_indep_refinements;
            let sleep' = sc.sleep.(d + 1) in
            Bitset.copy_into ~dst:sleep' sc.sleep.(d);
            Bitset.union_into sleep' sc.explored.(d);
            Bitset.inter_into sleep' (Rel.successors sc.indep ev);
            let token = Enumerate.execute st ev in
            st.Enumerate.schedule.(d) <- ev;
            go (d + 1);
            Enumerate.undo st ev token;
            Bitset.add sc.explored.(d) ev
          end
        end;
        e := Bitset.min_elt_from st.Enumerate.frontier (ev + 1)
      done
    end
  in
  (try go 0 with Stop -> ());
  List.rev !acc

let iter_task ?(stats = Counters.null) ?(budget = Budget.unlimited) sk
    { prefix; sleep } f =
  let sc = make_scratch sk in
  let st = sc.st in
  (* Replay is uncounted, mirroring [Enumerate.iter_from]. *)
  Array.iteri
    (fun i e ->
      if not (Enumerate.ready st e) then
        invalid_arg "Por.iter_task: prefix event is not ready";
      let (_ : [ `Sem of int * int | `Ev of int * bool | `None ]) =
        Enumerate.execute st e
      in
      st.Enumerate.schedule.(i) <- e)
    prefix;
  let depth = Array.length prefix in
  Bitset.copy_into ~dst:sc.sleep.(depth) sleep;
  let found = ref 0 in
  (try go_packed sc None found ~stats ~budget f depth with Stop -> ());
  !found
