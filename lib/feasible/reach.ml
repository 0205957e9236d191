type state = {
  completed : bool array;
  ev : bool array;
  bsem : int array;
      (* current value of each BINARY semaphore (entries for counting
         semaphores are unused: their value is a function of [completed],
         but a binary semaphore's value depends on the order of absorbed
         V operations, so it must be part of the state) *)
  csem : int array;
      (* cached value of each COUNTING semaphore — a pure function of
         [completed], maintained incrementally and deliberately excluded
         from the memo key *)
}

(* States are keyed by packed machine words: the [completed] and [ev] bit
   vectors, then one word per binary semaphore value.  Each [t] owns one
   scratch buffer of that fixed length; probes hash it in place, and only
   a memo-table insert copies it out.  62 data bits per word keeps every
   word a nonnegative OCaml int. *)
let bits_per_word = 62

let words_for n = if n = 0 then 0 else ((n - 1) / bits_per_word) + 1

let pack_bools_into dst off a =
  let nw = words_for (Array.length a) in
  for w = 0 to nw - 1 do
    dst.(off + w) <- 0
  done;
  Array.iteri
    (fun i b ->
      if b then
        let w = off + (i / bits_per_word) in
        dst.(w) <- dst.(w) lor (1 lsl (i mod bits_per_word)))
    a;
  off + nw

type t = {
  sk : Skeleton.t;
  n : int;
  preds : int array array;
      (* po_preds ++ dep_preds per event, flattened once so [ready] scans
         an int array instead of two lists *)
  scratch : int array;
  can_complete_memo : bool Wordtbl.t;
  count_memo : int Wordtbl.t;
  stats : Counters.t;
  budget : Budget.t;
  mutable committed_probes : int;
  mutable committed_resizes : int;
      (* [stats_commit] folds memo-table probe/resize *deltas* into the
         counters, so calling it more than once never double-counts *)
}

let key_length sk =
  let n = sk.Skeleton.n in
  words_for n
  + words_for (Array.length sk.Skeleton.ev_init)
  + Array.length sk.Skeleton.sem_init

let create ?(stats = Counters.null) ?(budget = Budget.unlimited) sk =
  let n = sk.Skeleton.n in
  {
    sk;
    n;
    preds =
      Array.init n (fun e ->
          Array.of_list
            (sk.Skeleton.po_preds.(e) @ sk.Skeleton.dep_preds.(e)));
    scratch = Array.make (key_length sk) 0;
    can_complete_memo = Wordtbl.create 1024;
    count_memo = Wordtbl.create 1024;
    stats;
    budget;
    committed_probes = 0;
    committed_resizes = 0;
  }

let stats_commit t =
  if Counters.enabled t.stats then begin
    let probes =
      Wordtbl.probes t.can_complete_memo + Wordtbl.probes t.count_memo
    in
    let resizes =
      Wordtbl.resizes t.can_complete_memo + Wordtbl.resizes t.count_memo
    in
    Counters.add t.stats Counters.Reach_tbl_probes (probes - t.committed_probes);
    Counters.add t.stats Counters.Reach_tbl_resizes
      (resizes - t.committed_resizes);
    t.committed_probes <- probes;
    t.committed_resizes <- resizes
  end

let skeleton t = t.sk

(* Budget polls sit on the memo-miss / first-visit paths: one poll per
   distinct state expanded, nothing on the (cheap) hit paths.  Partially
   explored recursions leave only fully-computed memo entries behind, so
   a [t] that raised {!Budget.Expired} is still sound to keep querying.  *)
let poll t = if Budget.poll_node t.budget then raise Budget.Expired

let initial_state t =
  {
    completed = Array.make t.n false;
    ev = Array.copy t.sk.Skeleton.ev_init;
    bsem =
      Array.mapi
        (fun s init -> if t.sk.Skeleton.sem_binary.(s) then init else 0)
        t.sk.Skeleton.sem_init;
    csem =
      Array.mapi
        (fun s init -> if t.sk.Skeleton.sem_binary.(s) then 0 else init)
        t.sk.Skeleton.sem_init;
  }

(* Packs [state] into [t.scratch] and returns it.  The result is only
   valid until the next [pack] on the same [t] — recursive calls clobber
   it, so copy before any insert that happens after recursion. *)
let pack t state =
  let off = pack_bools_into t.scratch 0 state.completed in
  let off = pack_bools_into t.scratch off state.ev in
  Array.blit state.bsem 0 t.scratch off (Array.length state.bsem);
  t.scratch

let sem_count t state s =
  if t.sk.Skeleton.sem_binary.(s) then state.bsem.(s) else state.csem.(s)

let preds_completed t state e =
  let preds = t.preds.(e) in
  let rec go i =
    i >= Array.length preds
    || (state.completed.(preds.(i)) && go (i + 1))
  in
  go 0

let ready t state e =
  (not state.completed.(e))
  && preds_completed t state e
  &&
  match t.sk.Skeleton.kinds.(e) with
  | Event.Sync (Event.Sem_p s) -> sem_count t state s > 0
  | Event.Sync (Event.Wait v) -> state.ev.(v)
  | _ -> true

let step t state e =
  let completed = Array.copy state.completed in
  completed.(e) <- true;
  let ev =
    match t.sk.Skeleton.kinds.(e) with
    | Event.Sync (Event.Post v) ->
        let ev = Array.copy state.ev in
        ev.(v) <- true;
        ev
    | Event.Sync (Event.Clear v) ->
        let ev = Array.copy state.ev in
        ev.(v) <- false;
        ev
    | _ -> state.ev
  in
  let bsem =
    match t.sk.Skeleton.kinds.(e) with
    | Event.Sync (Event.Sem_v s) when t.sk.Skeleton.sem_binary.(s) ->
        let bsem = Array.copy state.bsem in
        bsem.(s) <- 1;
        bsem
    | Event.Sync (Event.Sem_p s) when t.sk.Skeleton.sem_binary.(s) ->
        let bsem = Array.copy state.bsem in
        bsem.(s) <- bsem.(s) - 1;
        bsem
    | _ -> state.bsem
  in
  let csem =
    match t.sk.Skeleton.kinds.(e) with
    | Event.Sync (Event.Sem_v s) when not t.sk.Skeleton.sem_binary.(s) ->
        let csem = Array.copy state.csem in
        csem.(s) <- csem.(s) + 1;
        csem
    | Event.Sync (Event.Sem_p s) when not t.sk.Skeleton.sem_binary.(s) ->
        let csem = Array.copy state.csem in
        csem.(s) <- csem.(s) - 1;
        csem
    | _ -> state.csem
  in
  { completed; ev; bsem; csem }

let all_done state = Array.for_all Fun.id state.completed

let ready_events t state =
  let acc = ref [] in
  for e = t.n - 1 downto 0 do
    if ready t state e then acc := e :: !acc
  done;
  !acc

let rec can_complete t state =
  if all_done state then true
  else
    match Wordtbl.find_opt t.can_complete_memo (pack t state) with
    | Some r ->
        Counters.bump t.stats Counters.Reach_memo_hits;
        r
    | None ->
        Counters.bump t.stats Counters.Reach_memo_misses;
        poll t;
        (* The scratch key dies in the recursion below; copy it first. *)
        let k = Array.copy t.scratch in
        let r =
          List.exists (fun e -> can_complete t (step t state e))
            (ready_events t state)
        in
        Wordtbl.add t.can_complete_memo k r;
        r

let feasible_exists t = can_complete t (initial_state t)

(* Counts saturate below overflow: a 60-event skeleton can admit more
   schedules than an OCaml int holds. *)
let count_saturation = 1_000_000_000_000_000_000

let saturating_add a b =
  if a >= count_saturation - b then count_saturation else a + b

let rec count_from t state =
  if all_done state then 1
  else
    match Wordtbl.find_opt t.count_memo (pack t state) with
    | Some r ->
        Counters.bump t.stats Counters.Reach_memo_hits;
        r
    | None ->
        Counters.bump t.stats Counters.Reach_memo_misses;
        poll t;
        let k = Array.copy t.scratch in
        let r =
          List.fold_left
            (fun acc e -> saturating_add acc (count_from t (step t state e)))
            0 (ready_events t state)
        in
        Wordtbl.add t.count_memo k r;
        r

let schedule_count t = count_from t (initial_state t)

(* [a] runs before [b] in some feasible schedule iff some reachable state
   that can still complete has [a] done and [b] not.  On the way to such
   a state, the state [a]'s own step enters is one too, so it suffices to
   look at transitions: a step by [e] into a state that can complete puts
   [e] before every event still pending there.  The counting DP visits
   every transition once, so one pass yields the count and every bit.
   It keeps its own table, so what the count memo holds cannot skip a
   state, and a bit is set only once its target's count is final.  States
   change in place ({!Enumerate.execute}/[undo]); the key is the pending
   set, the event flags and the semaphore values, and only a first visit
   allocates (its copy). *)
let count_and_before t rel =
  Counters.bump t.stats Counters.Reach_queries;
  let st = Enumerate.make_search t.sk in
  let rows = Array.init t.n (fun _ -> Bitset.create t.n) in
  let pending = Bitset.create t.n in
  Bitset.fill pending;
  let pw = Bitset.num_words pending in
  let nev = Array.length st.Enumerate.ev in
  let key = Array.make (pw + words_for nev + Array.length st.Enumerate.sem) 0 in
  let pack () =
    for w = 0 to pw - 1 do
      key.(w) <- Bitset.get_word pending w
    done;
    let off = pack_bools_into key pw st.Enumerate.ev in
    Array.blit st.Enumerate.sem 0 key off (Array.length st.Enumerate.sem);
    key
  in
  let seen = Wordtbl.create 1024 in
  let rec go left =
    if left = 0 then 1
    else
      match Wordtbl.find_opt seen (pack ()) with
      | Some r ->
          Counters.bump t.stats Counters.Reach_memo_hits;
          r
      | None ->
          Counters.bump t.stats Counters.Reach_memo_misses;
          poll t;
          let k = Array.copy key in
          let r = ref 0 in
          let e = ref (Bitset.min_elt_from st.Enumerate.frontier 0) in
          while !e >= 0 do
            let ev = !e in
            if Enumerate.sync_enabled st ev then begin
              let token = Enumerate.execute st ev in
              Bitset.remove pending ev;
              let c = go (left - 1) in
              if c > 0 then Bitset.union_into rows.(ev) pending;
              Bitset.add pending ev;
              Enumerate.undo st ev token;
              r := saturating_add !r c
            end;
            e := Bitset.min_elt_from st.Enumerate.frontier (ev + 1)
          done;
          Wordtbl.add seen k !r;
          !r
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iteri (fun a row -> Bitset.iter (fun b -> Rel.add rel a b) row) rows;
      Counters.add t.stats Counters.Reach_tbl_probes (Wordtbl.probes seen);
      Counters.add t.stats Counters.Reach_tbl_resizes (Wordtbl.resizes seen))
    (fun () -> go t.n)

let walk_reachable t visit =
  let seen = Wordtbl.create 1024 in
  let rec go state =
    if not (Wordtbl.mem seen (pack t state)) then begin
      poll t;
      Wordtbl.add seen (Array.copy t.scratch) ();
      visit state;
      List.iter (fun e -> go (step t state e)) (ready_events t state)
    end
  in
  go (initial_state t);
  Wordtbl.length seen

let reachable_state_count t = walk_reachable t (fun _ -> ())

let deadlock_reachable t =
  let found = ref false in
  let (_ : int) =
    walk_reachable t (fun state ->
        if (not (all_done state)) && ready_events t state = [] then found := true)
  in
  !found

let deadlock_witness t =
  (* DFS carrying the prefix; first stuck state wins. *)
  let seen = Wordtbl.create 1024 in
  let rec go state prefix =
    if Wordtbl.mem seen (pack t state) then None
    else begin
      poll t;
      Wordtbl.add seen (Array.copy t.scratch) ();
      match ready_events t state with
      | [] -> if all_done state then None else Some (List.rev prefix)
      | ready ->
          List.find_map (fun e -> go (step t state e) (e :: prefix)) ready
    end
  in
  Option.map Array.of_list (go (initial_state t) [])

let exists_before t a b =
  Counters.bump t.stats Counters.Reach_queries;
  if a = b then false
  else begin
    let seen = Wordtbl.create 1024 in
    (* Explore only prefixes in which [b] has not yet run; once [a] has run
       in such a prefix, any completion witnesses [a] before [b]. *)
    let rec go state =
      if state.completed.(a) then can_complete t state
      else if Wordtbl.mem seen (pack t state) then false
      else begin
        poll t;
        Wordtbl.add seen (Array.copy t.scratch) ();
        List.exists
          (fun e -> e <> b && go (step t state e))
          (ready_events t state)
      end
    in
    go (initial_state t)
  end

let must_before t a b =
  a <> b && feasible_exists t && not (exists_before t b a)

(* Greedy completion: from a completable state, repeatedly run any ready
   event that keeps the state completable. *)
let complete_from t state acc =
  let rec go state acc =
    if all_done state then List.rev acc
    else
      let e =
        List.find
          (fun e -> can_complete t (step t state e))
          (ready_events t state)
      in
      go (step t state e) (e :: acc)
  in
  go state acc

let witness_before t a b =
  Counters.bump t.stats Counters.Reach_queries;
  if a = b then None
  else begin
    let seen = Wordtbl.create 1024 in
    let rec go state prefix =
      if state.completed.(a) then
        if can_complete t state then Some (complete_from t state prefix)
        else None
      else if Wordtbl.mem seen (pack t state) then None
      else begin
        poll t;
        Wordtbl.add seen (Array.copy t.scratch) ();
        List.find_map
          (fun e ->
            if e = b then None else go (step t state e) (e :: prefix))
          (ready_events t state)
      end
    in
    Option.map Array.of_list (go (initial_state t) [])
  end

let exists_race t a b =
  Counters.bump t.stats Counters.Reach_queries;
  a <> b
  &&
  let found = ref false in
  let (_ : int) =
    walk_reachable t (fun state ->
        if
          (not !found)
          && (not state.completed.(a))
          && (not state.completed.(b))
          && ready t state a && ready t state b
        then begin
          (* Both orders must remain completable from here. *)
          let s_ab = step t (step t state a) b in
          let s_ba = step t (step t state b) a in
          if
            ready t (step t state a) b
            && ready t (step t state b) a
            && can_complete t s_ab && can_complete t s_ba
          then found := true
        end)
  in
  !found

let race_witness t a b =
  if a = b then None
  else begin
    (* DFS carrying the prefix; at the first state where the pair can go
       either way, complete both continuations. *)
    let seen = Wordtbl.create 1024 in
    let rec go state prefix =
      if Wordtbl.mem seen (pack t state) then None
      else begin
        poll t;
        Wordtbl.add seen (Array.copy t.scratch) ();
        if
          (not state.completed.(a))
          && (not state.completed.(b))
          && ready t state a && ready t state b
          && ready t (step t state a) b
          && ready t (step t state b) a
          && can_complete t (step t (step t state a) b)
          && can_complete t (step t (step t state b) a)
        then
          (* [complete_from] takes the reversed prefix. *)
          let first =
            complete_from t (step t (step t state a) b) (b :: a :: prefix)
          in
          let second =
            complete_from t (step t (step t state b) a) (a :: b :: prefix)
          in
          Some (Array.of_list first, Array.of_list second)
        else
          List.find_map
            (fun e -> go (step t state e) (e :: prefix))
            (ready_events t state)
      end
    in
    go (initial_state t) []
  end
