(* Tier-1 wiring for the auto engine.  See triage.mli. *)

(* EGP graph construction is quadratic-ish; past this size the order
   clock is the only forced-ordering device consulted. *)
let egp_cap = 256

(* The observed schedule, if the execution's temporal order is total and
   the schedule replays — the feasibility witness every tier-1 positive
   rests on. *)
let observed_of sk =
  match Execution.schedule_of_temporal sk.Skeleton.execution with
  | exception Invalid_argument _ -> None
  | s -> ( match Replay.check sk s with Replay.Feasible -> Some s | _ -> None)

let positions schedule =
  let pos = Array.make (Array.length schedule) 0 in
  Array.iteri (fun i e -> pos.(e) <- i) schedule;
  pos

(* The observed schedule with [hi] hoisted to run back-to-back with
   [lo] — after it ([hi_first = false]) or before it ([hi_first =
   true]).  The two reorderings whose joint replay is the race
   certificate. *)
let hoist observed ~lo ~hi ~hi_first =
  let out = Array.make (Array.length observed) 0 in
  let j = ref 0 in
  let push e =
    out.(!j) <- e;
    incr j
  in
  Array.iter
    (fun e ->
      if e = hi then ()
      else if e = lo then
        if hi_first then (
          push hi;
          push lo)
        else (
          push lo;
          push hi)
      else push e)
    observed;
  out

let replays sk schedule =
  match Replay.check sk schedule with Replay.Feasible -> true | _ -> false

(* Prefix-enabledness: every program-order and dependence predecessor of
   [hi] runs strictly before [lo] in the observed schedule, so at the
   observed prefix just before [lo] both pair events are ready. *)
let prefix_enabled ~po_preds ~dep_preds ~pos ~lo ~hi =
  let before p = pos.(p) < pos.(lo) in
  List.for_all before po_preds.(hi) && List.for_all before dep_preds.(hi)

(* Both back-to-back orders of the pair, from the state the observed
   prefix reaches, replayed to completion: exactly the
   [Reach.exists_race] condition, certified operationally. *)
let certify_pair sk observed pos a b =
  let lo, hi = if pos.(a) < pos.(b) then (a, b) else (b, a) in
  prefix_enabled ~po_preds:sk.Skeleton.po_preds ~dep_preds:sk.Skeleton.dep_preds
    ~pos ~lo ~hi
  && replays sk (hoist observed ~lo ~hi ~hi_first:false)
  && replays sk (hoist observed ~lo ~hi ~hi_first:true)

let attach session =
  if Session.has_oracle session then ()
  else begin
    let sk = Session.skeleton session in
    let x = Session.execution session in
    let observed = lazy (observed_of sk) in
    let pos = lazy (Option.map positions (Lazy.force observed)) in
    let clock = lazy (Order_clock.of_skeleton ~with_deps:true sk) in
    let egp =
      (* The task-graph device reads the raw program order, so its
         guarantees only hold when every program-order edge is enforced
         — gate it to the SC model.  The order clock is built from the
         model-filtered skeleton and stays sound under relaxations. *)
      lazy
        (if sk.Skeleton.n > egp_cap || Memmodel.relaxes sk.Skeleton.model
         then None
         else match Egp.build x with e -> Some e | exception _ -> None)
    in
    (* [a] provably precedes [b] in every feasible schedule. *)
    let forced a b =
      (match Lazy.force clock with
      | Some c -> Order_clock.ordered c a b
      | None -> false)
      ||
      match Lazy.force egp with
      | Some e -> Egp.guaranteed_before e a b
      | None -> false
    in
    let obs_pos () = Lazy.force pos in
    let o_feasible () =
      match Lazy.force observed with Some _ -> Some true | None -> None
    in
    let o_exists_before a b =
      if a = b then Some false
      else if forced b a then Some false
      else
        match obs_pos () with
        | Some p when p.(a) < p.(b) -> Some true
        | _ -> None
    in
    let o_must_before a b =
      if a = b then Some false
      else
        match obs_pos () with
        | Some _ when forced a b -> Some true
        | Some p when p.(b) < p.(a) -> Some false
        | _ -> None
    in
    let o_race a b =
      if a = b then Some false
      else if forced a b || forced b a then Some false
      else
        match (Lazy.force observed, obs_pos ()) with
        | Some s, Some p when certify_pair sk s p a b -> Some true
        | _ -> None
    in
    Session.set_oracle session
      { Session.o_feasible; o_exists_before; o_must_before; o_race }
  end

(* ------------------------------------------------------------------ *)
(* The race layer's tier: candidate pairs are decided on modified
   skeletons (the pair's dependence edges dropped), so the forced-order
   device must not lean on any dependence edge — a po+sync-only clock is
   sound for every such modification.  The per-execution devices are
   built once; only the replays run against the pair's own skeleton. *)

let undecided =
  {
    Session.o_feasible = (fun () -> None);
    o_exists_before = (fun _ _ -> None);
    o_must_before = (fun _ _ -> None);
    o_race = (fun _ _ -> None);
  }

let race_oracle sk0 =
  (* Built eagerly: the closure is shared across the race layer's worker
     domains, where a lazy thunk could be forced concurrently. *)
  let clock = Order_clock.of_skeleton ~with_deps:false sk0 in
  let observed = observed_of sk0 in
  let pos = Option.map positions observed in
  let forced u v =
    match clock with Some c -> Order_clock.ordered c u v | None -> false
  in
  fun sk ->
    let o_race a b =
      if a = b then Some false
      else if forced a b || forced b a then Some false
      else
        match (observed, pos) with
        | Some s, Some p when certify_pair sk s p a b -> Some true
        | _ -> None
    in
    { undecided with Session.o_race }

(* ------------------------------------------------------------------ *)
(* The streaming pipeline. *)

type stream_relation = S_mhb | S_chb

type stream_answer = {
  q_rel : stream_relation;
  q_a : int;
  q_b : int;
  q_verdict : bool option;
}

type big_report = {
  events : int;
  candidates : int;
  truncated : bool;
  observed_feasible : bool;
  races : (int * int * int list) list;
  refuted : int;
  certified : int;
  undecided : int;
  answers : stream_answer list;
}

let races_big ?(stats = Counters.null) ?(budget = Budget.unlimited)
    ?(jobs = 1) ?(queries = []) (t : Bigtrace.t) =
  Counters.time stats Counters.T_total @@ fun () ->
  let events = Bigtrace.n_events t in
  let observed_feasible = Bigtrace.observed_replays t in
  let model = Memmodel.current () in
  let po_preds =
    (* Under a relaxing model only the enforced program-order edges are
       forced orderings, so only those feed the clock — fewer edges is
       the sound direction (the clock refutes less and certification
       picks up the slack).  [Sc] keeps the raw lists: the legacy path,
       bit for bit. *)
    if Memmodel.relaxes model then fun e ->
      List.filter
        (fun p ->
          Memmodel.enforced model t.Bigtrace.events.(p) t.Bigtrace.events.(e))
        (Bigtrace.po_preds t e)
    else Bigtrace.po_preds t
  in
  let clock =
    Order_clock.build
      ~pids:(Array.map (fun e -> e.Event.pid) t.Bigtrace.events)
      ~kinds:(Array.map (fun e -> e.Event.kind) t.Bigtrace.events)
      ~po_preds ~sem_init:t.Bigtrace.sem_init
      ~sem_binary:t.Bigtrace.sem_binary ~ev_init:t.Bigtrace.ev_init ()
  in
  let ordered u v =
    match clock with Some c -> Order_clock.ordered c u v | None -> false
  in
  (* Streaming relation queries, answered by the same tier-1 devices.
     Event ids are observed-schedule positions by construction, so the
     observed witness is the id order itself.  One-sided as everywhere
     in tier 1: [None] means the streaming path cannot decide (there is
     no higher tier at this scale — surfaced, never guessed). *)
  let answer (q_rel, q_a, q_b) =
    let q_verdict =
      if q_a = q_b then Some false
      else
        match q_rel with
        | S_mhb ->
            if ordered q_a q_b then Some true
            else if observed_feasible && q_b < q_a then Some false
            else None
        | S_chb ->
            if ordered q_b q_a then Some false
            else if observed_feasible && q_a < q_b then Some true
            else None
    in
    (match q_verdict with
    | Some _ -> Counters.bump stats Counters.Triage_approx_hits
    | None -> Counters.bump stats Counters.Triage_escalations);
    { q_rel; q_a; q_b; q_verdict }
  in
  let answers = List.map answer queries in
  let pairs = Array.of_list (Bigtrace.conflicting_pairs t) in
  let n_pairs = Array.length pairs in
  (* Candidate triage shards across worker domains: contiguous chunks,
     one per worker, merged in chunk order — per-candidate counter
     bumps land in per-chunk counters first, so totals are bit-identical
     across job counts (each candidate contributes the same bumps
     wherever it runs). *)
  let jobs = max 1 (min jobs (max 1 n_pairs)) in
  let run_chunk (lo, hi) =
    let c = if Counters.enabled stats then Counters.create () else Counters.null in
    let refuted = ref 0 and certified = ref 0 and undecided = ref 0 in
    let races = ref [] in
    let hit = ref false in
    (try
       for i = lo to hi - 1 do
         if Budget.poll_node budget then raise Budget.Expired;
         let a, b, vars = pairs.(i) in
         if ordered a b || ordered b a then begin
           incr refuted;
           Counters.bump c Counters.Triage_approx_hits
         end
         else if
           observed_feasible
           && Bigtrace.po_pred_max t b < a
           && Bigtrace.dep_pred_max_excluding t ~event:b ~excluding:a < a
           && Bigtrace.certify_swap t a b
         then begin
           incr certified;
           Counters.bump c Counters.Triage_approx_hits;
           races := (a, b, vars) :: !races
         end
         else begin
           incr undecided;
           Counters.bump c Counters.Triage_escalations
         end
       done
     with Budget.Expired -> hit := true);
    (c, List.rev !races, !refuted, !certified, !undecided, !hit)
  in
  let chunks =
    Array.init jobs (fun k ->
        (k * n_pairs / jobs, (k + 1) * n_pairs / jobs))
  in
  let results = Parallel.map ~jobs run_chunk chunks in
  let refuted = ref 0 and certified = ref 0 and undecided = ref 0 in
  let races = ref [] in
  let budget_hit = ref false in
  Array.iter
    (fun (c, rs, r, ce, u, hit) ->
      Counters.merge_into ~dst:stats c;
      races := List.rev_append rs !races;
      refuted := !refuted + r;
      certified := !certified + ce;
      undecided := !undecided + u;
      budget_hit := !budget_hit || hit)
    results;
  {
    events;
    candidates = n_pairs;
    truncated = !budget_hit;
    observed_feasible;
    races = List.rev !races;
    refuted = !refuted;
    certified = !certified;
    undecided = !undecided;
    answers;
  }
