type t = {
  session : Session.t;
  mutable summary : Relations.t option;  (* computed lazily for COW/MCW *)
}

let of_session session =
  (* Every per-pair primitive below runs the session's ladder; under
     the auto engine it starts at the triage layer's tier-1
     approximation oracle. *)
  Triage.attach session;
  { session; summary = None }

let of_skeleton ?limit ?(jobs = 1) ?stats ?budget sk =
  of_session
    (Session.create ?limit ~jobs ?stats ?budget ~cache:Session.no_cache sk)

let create ?limit ?jobs ?stats ?budget execution =
  of_skeleton ?limit ?jobs ?stats ?budget (Skeleton.of_execution execution)

let session t = t.session

let skeleton t = Session.skeleton t.session

let reach t = Session.reach t.session

let stats_commit t = Reach.stats_commit (reach t)

(* The per-pair primitives run the session's ladder: memoized
   reachability under the search engines, replay-certified assumption
   probes on one compiled formula under [Engine.Sat]. *)

let mhb t a b = Session.must_before t.session a b

let chb t a b = Session.exists_before t.session a b

let ccw t a b = Session.exists_race t.session a b

let mow t a b = a <> b && Session.feasible_exists t.session && not (ccw t a b)

let summary t =
  match t.summary with
  | Some s -> s
  | None ->
      let s = Relations.of_session_reduced t.session in
      t.summary <- Some s;
      s

let mcw t a b = Relations.holds (summary t) Relations.MCW a b

let cow t a b = Relations.holds (summary t) Relations.COW a b

let holds t relation a b =
  match relation with
  | Relations.MHB -> mhb t a b
  | Relations.CHB -> chb t a b
  | Relations.MCW -> mcw t a b
  | Relations.CCW -> ccw t a b
  | Relations.MOW -> mow t a b
  | Relations.COW -> cow t a b

let feasible_count t = (summary t).Relations.feasible_count

(* Outcome-typed decisions.  The per-pair primitives inherit the
   session's typed degradation; the composite relations combine
   outcomes so that a [Bound_hit] anywhere degrades the composition in
   its own sound direction (must → [true], could → [false]). *)

let mhb_outcome t a b = Session.must_before_outcome t.session a b
let chb_outcome t a b = Session.exists_before_outcome t.session a b
let ccw_outcome t a b = Session.exists_race_outcome t.session a b

let mow_outcome t a b =
  if a = b then Budget.Exact false
  else
    match ccw_outcome t a b with
    (* An exact race refutes must-ordered regardless of feasibility. *)
    | Budget.Exact true -> Budget.Exact false
    | Budget.Exact false -> Session.feasible_exists_outcome t.session
    | Budget.Bound_hit _ -> Budget.Bound_hit true

let class_outcome t relation a b =
  Budget.map
    (fun s -> Relations.holds s relation a b)
    (Relations.of_session_reduced_outcome t.session)

let mcw_outcome t a b = class_outcome t Relations.MCW a b
let cow_outcome t a b = class_outcome t Relations.COW a b

let holds_outcome t relation a b =
  match relation with
  | Relations.MHB -> mhb_outcome t a b
  | Relations.CHB -> chb_outcome t a b
  | Relations.MCW -> mcw_outcome t a b
  | Relations.CCW -> ccw_outcome t a b
  | Relations.MOW -> mow_outcome t a b
  | Relations.COW -> cow_outcome t a b
