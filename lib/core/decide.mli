(** Per-pair decision procedures for the ordering relations.

    {!Relations.of_session} fills every matrix at once (one pass over
    the reachable states plus one walk over the commutation classes);
    when only a single pair matters (as in the Theorem 1–4 experiments,
    which ask about one [(a, b)]), each relation is decided on its own
    by the session engine's tier ladder instead.  MHB and CHB go
    through {!Session.must_before}/{!Session.exists_before}, CCW through
    {!Session.exists_race} (some reachable context runs the pair
    back-to-back in both orders), MOW is [feasible && not CCW], and MCW
    and COW read the session's class-level summary
    ({!Relations.of_session_reduced}: sleep-set partial-order reduction —
    still exponential in the worst case, but exponentially cheaper than
    raw enumeration on traces with independent events). *)

type t

val of_session : Session.t -> t
(** A decision procedure riding a shared {!Session}: reachability
    queries go through the session's single memoized {!Reach} engine and
    the class-level summary is the session's (cached) [summary_reduced]
    — so many per-pair queries, the full matrices and the race analysis
    can all amortize one session.  Under the auto engine the session's
    ladder starts at the triage layer's tier-1 oracle. *)

val create :
  ?limit:int -> ?jobs:int -> ?stats:Telemetry.t -> ?budget:Budget.t ->
  Execution.t -> t
(** One-shot form: a private cache-disabled session.  [?budget] bounds
    every engine behind the decision procedure; expiry degrades each
    relation in its sound direction (see {!holds_outcome}), never as an
    exception. *)

val session : t -> Session.t

val stats_commit : t -> unit
(** Folds the reachability engine's memo-table probe/resize totals into
    the counters ({!Reach.stats_commit}); call before reading a stats
    report. *)

val holds_outcome : t -> Relations.relation -> int -> int -> bool Budget.outcome
(** Does [a relation b]?  [Bound_hit] when the session budget expired
    somewhere under the query, in which case the value errs in the
    relation's sound direction — must-relations report [true]
    (over-approximation), could-relations [false] (under-reporting). *)

val holds : t -> Relations.relation -> int -> int -> bool
(** [Budget.value] of {!holds_outcome}. *)
