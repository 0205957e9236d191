(* A decision procedure is its session, with the auto ladder's tier-1
   oracle attached: every per-pair primitive runs the session's ladder
   (memoized reachability under the search engines, replay-certified
   assumption probes on one compiled formula under [Engine.Sat]). *)
type t = Session.t

let of_session session =
  Triage.attach session;
  session

let create ?limit ?(jobs = 1) ?stats ?budget execution =
  of_session
    (Session.of_execution ?limit ~jobs ?stats ?budget ~cache:Session.no_cache
       execution)

let session t = t

let stats_commit t = Reach.stats_commit (Session.reach t)

(* The composite relations combine outcomes so that a [Bound_hit]
   anywhere degrades the composition in its own sound direction
   (must → [true], could → [false]); the concurrency and ordering
   relations beyond CCW/MOW read the session's class-level summary. *)
let holds_outcome t relation a b =
  match relation with
  | Relations.MHB -> Session.must_before_outcome t a b
  | Relations.CHB -> Session.exists_before_outcome t a b
  | Relations.CCW -> Session.exists_race_outcome t a b
  | Relations.MOW -> (
      if a = b then Budget.Exact false
      else
        match Session.exists_race_outcome t a b with
        (* An exact race refutes must-ordered regardless of feasibility. *)
        | Budget.Exact true -> Budget.Exact false
        | Budget.Exact false -> Session.feasible_exists_outcome t
        | Budget.Bound_hit _ -> Budget.Bound_hit true)
  | Relations.MCW | Relations.COW ->
      Budget.map
        (fun s -> Relations.holds s relation a b)
        (Relations.of_session_reduced_outcome t)

let holds t relation a b = Budget.value (holds_outcome t relation a b)
