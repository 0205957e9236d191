type relation = MHB | CHB | MCW | CCW | MOW | COW

let all_relations = [ MHB; CHB; MCW; CCW; MOW; COW ]

let relation_name = function
  | MHB -> "must-have-happened-before"
  | CHB -> "could-have-happened-before"
  | MCW -> "must-have-been-concurrent-with"
  | CCW -> "could-have-been-concurrent-with"
  | MOW -> "must-have-been-ordered-with"
  | COW -> "could-have-been-ordered-with"

type t = {
  n : int;
  feasible_count : int;
  truncated : bool;
  distinct_classes : int;
  before_some : Rel.t;
  comparable_some : Rel.t;
  incomparable_some : Rel.t;
}

(* The traversal, accumulation and caching machinery behind these
   summaries lives in {!Session} (lib/feasible) — one registered fold
   over one shared pass of F(P).  This module only rebuilds its public
   record from the session's summary and keeps the relation algebra. *)
let of_summary (s : Session.summary) =
  {
    n = s.Session.n;
    feasible_count = s.Session.feasible_count;
    truncated = s.Session.truncated;
    distinct_classes = s.Session.distinct_classes;
    before_some = s.Session.before_some;
    comparable_some = s.Session.comparable_some;
    incomparable_some = s.Session.incomparable_some;
  }

let of_session session = of_summary (Session.summary session)
let of_session_reduced session = of_summary (Session.summary_reduced session)

(* Outcome-typed constructors: [Bound_hit] exactly when the underlying
   summary was truncated (by [?limit] or by the session budget), i.e.
   when the could-have bits are under-approximate and the must-have
   relations derived from them over-approximate. *)
let of_session_outcome session =
  Budget.map of_summary (Session.summary_outcome session)

let of_session_reduced_outcome session =
  Budget.map of_summary (Session.summary_reduced_outcome session)

(* The one-shot entry points: a private, cache-disabled session per
   call, so their counter reports stay exactly reproducible (no warm LRU
   can zero out a later run's search work). *)
let one_shot ?limit ~jobs ?stats sk =
  Session.create ?limit ~jobs ?stats ~cache:Session.no_cache sk

let compute_reduced ?limit ?(jobs = 1) ?stats sk =
  of_session_reduced (one_shot ?limit ~jobs ?stats sk)

let compute_enumerated ?limit ?(jobs = 1) ?stats sk =
  of_summary (Session.summary_enumerated (one_shot ?limit ~jobs ?stats sk))

(* The must-relations need F(P) non-empty — but under a truncated pass
   [feasible_count] may read 0 with feasible executions merely unvisited
   (a budget can expire before the first schedule completes).  Treating
   that 0 as "infeasible" would flip every must-relation to [false]: an
   under-approximation, the unsound direction for must.  A truncated
   pass therefore presumes feasibility, keeping must-answers
   over-approximate as documented. *)
let feasible_known t = t.feasible_count > 0 || t.truncated

let holds t relation a b =
  if a = b then false
  else
    let feasible_known = feasible_known t in
    match relation with
    | CHB -> Rel.mem t.before_some a b
    | MHB -> feasible_known && not (Rel.mem t.before_some b a)
    | CCW -> Rel.mem t.incomparable_some a b
    | MOW -> feasible_known && not (Rel.mem t.incomparable_some a b)
    | COW -> Rel.mem t.comparable_some a b
    | MCW -> feasible_known && not (Rel.mem t.comparable_some a b)

(* [holds] a row at a time: each could-relation is its bit matrix off
   the diagonal, each must-relation the complement of its dual's (MHB's
   dual is CHB transposed) when F(P) is known non-empty, else empty. *)
let to_rel t relation =
  let must dual =
    if feasible_known t then Rel.complement dual else Rel.create t.n
  in
  match relation with
  | CHB -> Rel.irreflexive t.before_some
  | MHB -> must (Rel.transpose t.before_some)
  | CCW -> Rel.irreflexive t.incomparable_some
  | MOW -> must t.incomparable_some
  | COW -> Rel.irreflexive t.comparable_some
  | MCW -> must t.comparable_some

let short_name = function
  | MHB -> "MHB"
  | CHB -> "CHB"
  | MCW -> "MCW"
  | CCW -> "CCW"
  | MOW -> "MOW"
  | COW -> "COW"

let pp_matrix ppf (t, relation, events) =
  let label e = events.(e).Event.label in
  let width =
    Array.fold_left (fun w e -> max w (String.length e.Event.label)) 3 events
  in
  Format.fprintf ppf "@[<v>%s (%s):@ " (relation_name relation)
    (short_name relation);
  Format.fprintf ppf "%*s " width "";
  for b = 0 to t.n - 1 do
    Format.fprintf ppf "%2d " b
  done;
  Format.fprintf ppf "@ ";
  for a = 0 to t.n - 1 do
    Format.fprintf ppf "%*s " width (label a);
    for b = 0 to t.n - 1 do
      Format.fprintf ppf " %s "
        (if a = b then "." else if holds t relation a b then "X" else "-")
    done;
    Format.fprintf ppf "@ "
  done;
  Format.fprintf ppf "@]"

let pp_summary ppf (t, events) =
  Format.fprintf ppf "@[<v>%d feasible schedule%s%s in %d distinct class%s@ @ "
    t.feasible_count
    (if t.feasible_count = 1 then "" else "s")
    (if t.truncated then " (truncated)" else "")
    t.distinct_classes
    (if t.distinct_classes = 1 then "" else "es");
  List.iter
    (fun r -> Format.fprintf ppf "%a@ " pp_matrix (t, r, events))
    all_relations;
  Format.fprintf ppf "@]"
