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

(* Table 1's duality, where it is exact: [a CHB b] is the summary's
   before-some bit and [a MHB b] is F(P) non-empty and not [b CHB a], so
   a session already holding an exact class-level summary answers both
   from it.  CCW and MOW stay on the ladder: with Clear present the
   operational race test and class-level incomparability disagree. *)
let from_summary t relation a b ladder =
  match
    Session.from_summary t (fun s ->
        Relations.holds (Relations.of_summary s) relation a b)
  with
  | Some v -> Budget.Exact v
  | None -> ladder t a b

(* The composite relations combine outcomes so that a [Bound_hit]
   anywhere degrades the composition in its own sound direction
   (must → [true], could → [false]); the concurrency and ordering
   relations beyond CCW/MOW read the session's class-level summary. *)
let holds_outcome t relation a b =
  match relation with
  | Relations.MHB when a = b -> Budget.Exact false
  | Relations.MHB -> from_summary t relation a b Session.must_before_outcome
  | Relations.CHB -> from_summary t relation a b Session.exists_before_outcome
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
