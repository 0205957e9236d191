(* Deterministic multicore fan-out for the exact engines.  The DFS is cut
   at a shallow frontier depth into independent subtree tasks (one per
   feasible prefix / sleep-set node); workers drain the task array through
   an atomic cursor and results are merged in task order, so the outcome
   never depends on which domain ran which task. *)

let default_jobs () = Config.jobs ()

let map ?telemetry ?(budget = Budget.unlimited) ~jobs f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    (* Callers split the work by the requested [jobs], so results and
       counters do not depend on the machine; only the number of domains
       that drain the tasks is capped at what the host can run at once. *)
    let jobs = max 1 (min (min jobs n) (Domain.recommended_domain_count ())) in
    (match telemetry with
    | Some tel -> Telemetry.ensure_domains tel jobs
    | None -> ());
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failed = Atomic.make false in
    (* Each worker owns the result slots of the tasks it claims; no two
       workers ever touch the same index, so plain writes suffice.
       Per-domain wall times land in distinct telemetry slots the same
       way.  A task's exception is parked in its own slot and re-raised
       after every domain has joined; tasks are claimed in index order,
       so the lowest-indexed failure wins deterministically whatever
       the domain interleaving. *)
    let worker k =
      Telemetry.timed_domain telemetry k (fun () ->
          let rec loop () =
            if not (Atomic.get failed) then begin
              (* Re-read the deadline between tasks: once any domain
                 trips it, the shared flag makes every remaining task
                 near-instant (a budget-aware [f] stops on its first
                 poll), so the whole fan-out winds down while [map]
                 still returns a complete, deterministic array. *)
              ignore (Budget.check_now budget);
              let i = Atomic.fetch_and_add next 1 in
              if i < n then begin
                (match f xs.(i) with
                | r -> results.(i) <- Some (Ok r)
                | exception e ->
                    let bt = Printexc.get_raw_backtrace () in
                    results.(i) <- Some (Error (e, bt));
                    Atomic.set failed true);
                loop ()
              end
            end
          in
          loop ())
    in
    (* The calling domain is worker 0; with one job it runs every task
       itself, through the same loop. *)
    let domains =
      Array.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1)))
    in
    (* Join every domain even when the caller's share raises — a leaked
       domain would keep mutating [results] behind our back. *)
    Fun.protect
      ~finally:(fun () -> Array.iter Domain.join domains)
      (fun () -> worker 0);
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | Some (Ok _) | None -> ())
      results;
    Array.map
      (function
        | Some (Ok r) -> r
        | Some (Error _) | None -> assert false (* all claimed, none failed *))
      results
  end

(* Split-depth heuristic, shared by both splitters: the shallowest depth
   (capped at 8) whose task count reaches [jobs * 4] — enough slack that
   uneven subtree sizes still balance — falling back to the deepest depth
   with at least two tasks, and to None (caller stays sequential) when the
   tree never branches. *)
let oversubscription = 4

let max_split_depth = 8

let choose_split ~n ~jobs tasks_at =
  if n < 2 then None
  else begin
    let target = jobs * oversubscription in
    let best = ref None in
    let d = ref 1 in
    let stop = ref false in
    while (not !stop) && !d <= min (n - 1) max_split_depth do
      let ts = tasks_at !d in
      let k = List.length ts in
      if k >= target then begin
        best := Some (!d, ts);
        stop := true
      end
      else begin
        if k >= 2 then best := Some (!d, ts);
        incr d
      end
    done;
    !best
  end

(* Depth probing runs uncounted — the walks of the depths we reject are
   not attributable to the result.  When counters are on, the chosen
   depth is re-walked once with counting, so the split's share of nodes
   plus the workers' equals the sequential search's exactly (that is the
   jobs-invariance the QCheck suite locks).  The re-walk touches only the
   shallow prefix tree, noise next to the full search below it. *)
let split_with ~stats ~counted_walk ~n ~jobs tasks_at =
  match choose_split ~n ~jobs tasks_at with
  | None -> None
  | Some (depth, tasks) ->
      let tasks =
        if Counters.enabled stats then
          Counters.time stats Counters.T_split (fun () -> counted_walk depth)
        else tasks
      in
      Counters.add stats Counters.Par_tasks (List.length tasks);
      Some (depth, Array.of_list tasks)

let split_prefixes ?(stats = Counters.null) sk ~jobs =
  split_with ~stats
    ~counted_walk:(fun d -> Enumerate.feasible_prefixes ~stats sk ~depth:d)
    ~n:sk.Skeleton.n ~jobs
    (fun d -> Enumerate.feasible_prefixes sk ~depth:d)

let split_por_tasks ?(stats = Counters.null) sk ~jobs =
  split_with ~stats
    ~counted_walk:(fun d -> Por.tasks ~stats sk ~depth:d)
    ~n:sk.Skeleton.n ~jobs
    (fun d -> Por.tasks sk ~depth:d)

let count ?limit ?jobs ?(stats = Counters.null) ?(budget = Budget.unlimited) sk
    =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs <= 1 || limit <> None then Enumerate.count ?limit ~stats ~budget sk
  else
    match split_prefixes ~stats sk ~jobs with
    | None -> Enumerate.count ~stats ~budget sk
    | Some (_depth, prefixes) ->
        let results =
          map ~jobs ~budget
            (fun prefix ->
              let c =
                if Counters.enabled stats then Counters.create ()
                else Counters.null
              in
              let k =
                Enumerate.iter_from ~stats:c ~budget sk ~prefix (fun _ -> ())
              in
              (k, c))
            prefixes
        in
        Array.iter
          (fun (_, c) ->
            Counters.bump stats Counters.Par_merges;
            Counters.merge_into ~dst:stats c)
          results;
        Array.fold_left (fun acc (k, _) -> acc + k) 0 results
