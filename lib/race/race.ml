type race = { e1 : int; e2 : int; variables : int list }

let conflict_variables a b =
  let vars_of e = List.sort_uniq compare (e.Event.reads @ e.Event.writes) in
  List.filter
    (fun v ->
      let writes e = List.mem v e.Event.writes in
      let touches e = List.mem v e.Event.reads || writes e in
      (writes a && touches b) || (writes b && touches a))
    (List.sort_uniq compare (vars_of a @ vars_of b))

let conflicting_pairs (x : Execution.t) =
  let events = x.Execution.events in
  let n = Array.length events in
  let races = ref [] in
  for e1 = 0 to n - 1 do
    for e2 = e1 + 1 to n - 1 do
      if
        Event.is_computation events.(e1)
        && Event.is_computation events.(e2)
        && events.(e1).Event.pid <> events.(e2).Event.pid
      then
        match conflict_variables events.(e1) events.(e2) with
        | [] -> ()
        | variables -> races := { e1; e2; variables } :: !races
    done
  done;
  List.rev !races

let apparent_races x =
  let vc = Vclock.of_execution x in
  List.filter (fun r -> Vclock.concurrent vc r.e1 r.e2) (conflicting_pairs x)

(* Only the auto ladder consults tier 1, so only it pays for the
   per-execution devices — built once, immutable, shared by every
   candidate decision on every worker domain. *)
let tier1 engine sk =
  if engine = Engine.Auto then Some (Triage.race_oracle sk) else None

(* One candidate pair, decided on the shared skeleton with the pair's own
   dependence edges dropped: its ordering is exactly what is in question,
   so requiring it to be preserved would beg the answer.  Without a
   [limit] the engine's ladder decides it; with one, the reference path
   — capped schedule enumeration plus pinned-order incomparability —
   runs instead (the uniform [?limit] semantics: capped enumeration,
   sound under-reporting).  Budget expiry degrades the pair to "no
   race", the same sound direction. *)
let decide_pair ?limit ~engine ~stats ~budget ~tier1 sk e1 e2 =
  let sk = Skeleton.without_pair sk e1 e2 in
  match limit with
  | None -> (
      let oracle = Option.map (fun f -> f sk) tier1 in
      match Session.decide_race engine ~stats ~budget ?oracle sk e1 e2 with
      | v -> v
      | exception Budget.Expired ->
          Counters.bump stats Counters.Timeout_expirations;
          false)
  | Some _ ->
      let found = ref false in
      let (_ : int) =
        Enumerate.iter ?limit ~stats ~budget ~engine sk (fun schedule ->
            let po = Pinned.po_of_schedule sk schedule in
            if (not (Rel.mem po e1 e2)) && not (Rel.mem po e2 e1) then begin
              found := true;
              raise Enumerate.Stop
            end)
      in
      !found

let race_witness x e1 e2 =
  let sk = Skeleton.without_pair (Skeleton.of_execution x) e1 e2 in
  Reach.race_witness (Reach.create sk) e1 e2

let compute_feasible session =
  let sk = Session.skeleton session and engine = Session.engine session in
  let jobs = Session.jobs session and budget = Session.budget session in
  let stats = Session.telemetry session in
  let c =
    match stats with None -> Counters.null | Some tel -> Telemetry.counters tel
  in
  Counters.time c Counters.T_total @@ fun () ->
  let candidates = Array.of_list (conflicting_pairs sk.Skeleton.execution) in
  (* Each candidate decision builds its own engines from scratch (the
     pair's dependence edges are dropped, so the session's own engines
     do not apply), so the per-pair work is independent whatever [jobs]
     is — worker counters merge in candidate order and every counter
     (memo statistics included) is identical to the sequential run's.
     The workers read the session's skeleton and engine, never the
     domain-local switches. *)
  let tier1 = tier1 engine sk in
  let verdicts =
    Parallel.map ?telemetry:stats ~budget ~jobs
      (fun r ->
        let wc = if Counters.enabled c then Counters.create () else Counters.null in
        let v =
          decide_pair ?limit:(Session.limit session) ~engine ~stats:wc ~budget
            ~tier1 sk r.e1 r.e2
        in
        (v, wc))
      candidates
  in
  Array.iter (fun (_, wc) -> Counters.merge_into ~dst:c wc) verdicts;
  List.filteri (fun i _ -> fst verdicts.(i)) (Array.to_list candidates)

(* Race sets cannot ride the session's F(P) pass — each candidate is
   decided on a *modified* skeleton — so the session serves them through
   its keyed cache instead: payloads are stored in the Program_key's
   canonical event coordinates and decoded back, which makes a cached
   set valid for any renumbering of the same program. *)
let encode_races key races =
  let tc = key.Program_key.to_canonical in
  let canon r =
    let a = tc.(r.e1) and b = tc.(r.e2) in
    ((min a b, max a b), r.variables)
  in
  let entries = List.sort compare (List.map canon races) in
  let buf = Buffer.create 128 in
  Printf.bprintf buf "races %d\n" (List.length entries);
  List.iter
    (fun ((a, b), vars) ->
      Printf.bprintf buf "%d %d" a b;
      List.iter (fun v -> Printf.bprintf buf " %d" v) vars;
      Buffer.add_char buf '\n')
    entries;
  Buffer.contents buf

(* Decoding trusts nothing: a disk payload may be truncated, corrupted,
   or written by a buggy producer.  Beyond the event-id bounds checks,
   every race line must carry a non-empty, strictly increasing list of
   non-negative variable ids on distinct events — any violation rejects
   the whole payload and the caller recomputes from scratch. *)
let valid_variables vars =
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | [ _ ] | [] -> true
  in
  vars <> [] && List.for_all (fun v -> v >= 0) vars && strictly_increasing vars

let decode_races key payload =
  let oc = key.Program_key.of_canonical in
  let n = Array.length oc in
  match String.split_on_char '\n' payload with
  | [] -> None
  | header :: lines -> (
      let tag = "races " in
      match
        if String.starts_with ~prefix:tag header then
          int_of_string_opt
            (String.sub header (String.length tag)
               (String.length header - String.length tag))
        else None
      with
      | None -> None
      | Some count -> (
          try
            let races =
              List.filteri (fun i _ -> i < count) lines
              |> List.map (fun line ->
                     match
                       String.split_on_char ' ' line |> List.map int_of_string
                     with
                     | a :: b :: vars
                       when a >= 0 && a < n && b >= 0 && b < n && a <> b
                            && valid_variables vars ->
                         let x = oc.(a) and y = oc.(b) in
                         { e1 = min x y; e2 = max x y; variables = vars }
                     | _ -> failwith "race line")
            in
            if List.length races <> count then None
            else Some (List.sort (fun r1 r2 -> compare (r1.e1, r1.e2) (r2.e1, r2.e2)) races)
          with Failure _ -> None))

let feasible_races_session session =
  let computed = ref None in
  let payload =
    Session.cached_blob session ~kind:"races" (fun () ->
        let races = compute_feasible session in
        computed := Some races;
        encode_races (Session.key session) races)
  in
  match !computed with
  | Some races -> races
  | None -> (
      match decode_races (Session.key session) payload with
      | Some races -> races
      | None ->
          (* Corrupt cache payload: fall back to computing fresh. *)
          compute_feasible session)

let feasible_races ?limit ?(jobs = 1) ?stats x =
  feasible_races_session
    (Session.of_execution ?limit ~jobs ?stats ~cache:Session.no_cache x)

(* Outcome-typed variants: a race set computed under an exhausted
   session budget is a sound under-report, not the full set. *)
let mark_outcome session races =
  if Budget.exhausted (Session.budget session) then Budget.Bound_hit races
  else Budget.Exact races

let feasible_races_session_outcome session =
  mark_outcome session (feasible_races_session session)

(* The precedence is the observed happened-before order, along the
   recorded schedule — which must replay ([Vclock.observed]). *)
let first_of_feasible sk races =
  let vc = Vclock.observed sk in
  let precedes r1 r2 =
    Vclock.hb vc r1.e1 r2.e1 && Vclock.hb vc r1.e1 r2.e2
    && Vclock.hb vc r1.e2 r2.e1 && Vclock.hb vc r1.e2 r2.e2
  in
  List.filter
    (fun r -> not (List.exists (fun r' -> r' <> r && precedes r' r) races))
    races

let first_races_session session =
  first_of_feasible (Session.skeleton session) (feasible_races_session session)

let first_races_session_outcome session =
  mark_outcome session (first_races_session session)

let pp_race (x : Execution.t) ppf r =
  let e ppf id = Format.fprintf ppf "%s" x.Execution.events.(id).Event.label in
  Format.fprintf ppf "race between %a (event %d) and %a (event %d) on %a" e
    r.e1 r.e1 e r.e2 r.e2
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf v -> Format.fprintf ppf "v%d" v))
    r.variables
