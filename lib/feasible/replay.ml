type verdict =
  | Feasible
  | Not_a_permutation
  | Program_order_violated of { event : int; missing_pred : int }
  | Dependence_violated of { event : int; missing_pred : int }
  | Sync_blocked of { event : int }

exception Verdict of verdict

let check (sk : Skeleton.t) schedule =
  let n = sk.Skeleton.n in
  try
    if Array.length schedule <> n then raise (Verdict Not_a_permutation);
    let done_ = Array.make n false in
    let sem = Array.copy sk.Skeleton.sem_init in
    let ev = Array.copy sk.Skeleton.ev_init in
    Array.iter
      (fun e ->
        if e < 0 || e >= n || done_.(e) then raise (Verdict Not_a_permutation);
        List.iter
          (fun p ->
            if not done_.(p) then
              raise (Verdict (Program_order_violated { event = e; missing_pred = p })))
          sk.Skeleton.po_preds.(e);
        List.iter
          (fun p ->
            if not done_.(p) then
              raise (Verdict (Dependence_violated { event = e; missing_pred = p })))
          sk.Skeleton.dep_preds.(e);
        (match sk.Skeleton.kinds.(e) with
        | Event.Computation | Event.Sync (Event.Fork | Event.Join) -> ()
        | Event.Sync (Event.Sem_p s) ->
            if sem.(s) <= 0 then raise (Verdict (Sync_blocked { event = e }));
            sem.(s) <- sem.(s) - 1
        | Event.Sync (Event.Sem_v s) ->
            if sk.Skeleton.sem_binary.(s) then sem.(s) <- 1
            else sem.(s) <- sem.(s) + 1
        | Event.Sync (Event.Post v) -> ev.(v) <- true
        | Event.Sync (Event.Wait v) ->
            if not ev.(v) then raise (Verdict (Sync_blocked { event = e }))
        | Event.Sync (Event.Clear v) -> ev.(v) <- false);
        done_.(e) <- true)
      schedule;
    Feasible
  with Verdict v -> v

let is_feasible sk schedule = check sk schedule = Feasible

exception Not_replayable of string

let pp_verdict ppf = function
  | Feasible -> Format.pp_print_string ppf "feasible"
  | Not_a_permutation -> Format.pp_print_string ppf "not a permutation of the events"
  | Program_order_violated { event; missing_pred } ->
      Format.fprintf ppf "event %d scheduled before its program-order predecessor %d"
        event missing_pred
  | Dependence_violated { event; missing_pred } ->
      Format.fprintf ppf "event %d scheduled before its dependence predecessor %d"
        event missing_pred
  | Sync_blocked { event } ->
      Format.fprintf ppf "synchronization event %d scheduled while blocked" event

let require sk schedule =
  let fail fmt =
    Format.kasprintf
      (fun m ->
        raise (Not_replayable ("the recorded schedule does not replay: " ^ m)))
      fmt
  in
  match check sk schedule with
  | Feasible -> ()
  | Not_a_permutation as v -> fail "%a" pp_verdict v
  | ( Program_order_violated { event; _ }
    | Dependence_violated { event; _ }
    | Sync_blocked { event } ) as v ->
      let step = ref 0 in
      while schedule.(!step) <> event do incr step done;
      fail "step %d is not enabled (%a)" !step pp_verdict v
