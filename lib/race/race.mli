(** Data-race detection on observed executions — the application the
    paper's conclusion points at: exhaustively detecting all data races a
    given execution could have exhibited is intractable, because it reduces
    to could-have-been-concurrent queries.

    Two notions are implemented:

    - {b apparent races}: conflicting accesses unordered by the observed
      execution's happened-before order (vector clocks over program order
      plus the observed synchronization pairing).  Polynomial; this is what
      practical detectors report.  Apparent races are neither sound nor
      complete for what could really happen concurrently.
    - {b feasible races}: conflicting accesses that are incomparable in the
      pinned order of at least one feasible program execution, where
      feasibility preserves every shared-data dependence {e except those
      between the candidate pair itself} (following the companion paper's
      treatment: the racing pair's own ordering is exactly what is in
      question).  Exponential — decided with the exact engine. *)

type race = {
  e1 : int;  (** lower event id of the conflicting pair *)
  e2 : int;  (** higher event id *)
  variables : int list;  (** shared variables the pair conflicts on *)
}

val conflicting_pairs : Execution.t -> race list
(** All pairs of conflicting computation events (the race candidates). *)

val apparent_races : Execution.t -> race list
(** Candidates unordered under the observed vector-clock happened-before.
    @raise Replay.Not_replayable when the recorded schedule does not
    replay ({!Vclock.observed}). *)

val feasible_races_session : Session.t -> race list
(** Feasible races through a shared {!Session}.  Race candidates are
    each decided on a {e modified} skeleton (the pair's own dependence
    edges dropped from the session's skeleton), so they cannot ride the
    session's F(P) pass; each runs the ladder of the session's engine
    ({!Session.decide_race}).  What the session also contributes is its
    keyed cache: the race set is stored under the session's
    {!Program_key} (in canonical event coordinates, so any renumbering
    of the program is a hit) and a warm cache skips the per-pair engines
    entirely.  Limit/jobs/telemetry come from the session. *)

val feasible_races :
  ?limit:int -> ?jobs:int -> ?stats:Telemetry.t -> Execution.t -> race list
(** Candidates that can race: some reachable context runs the pair
    back-to-back in both orders, with the pair's own dependence edges
    dropped from the feasibility constraints.  Decided by the memoized
    state engine ({!Reach.exists_race}) — still exponential in the worst
    case, as the paper's conclusion demands.

    The optional arguments carry the uniform semantics: [?limit] decides
    each pair by capped schedule enumeration instead (sound
    under-reporting); [?jobs] (default [1]) fans the independent per-pair
    decisions out over worker domains, results merged in candidate order
    — bit-identical to sequential, counters included, since every pair
    builds its own engines; [?stats] populates a {!Telemetry.t}. *)

val race_witness : Execution.t -> int -> int -> (int array * int array) option
(** Two feasible schedules sharing a prefix and running the pair in
    opposite orders (with the pair's own dependences dropped) — the
    interleavings to show in a race report.  [Some _] exactly when the
    pair is a feasible race. *)

val feasible_races_session_outcome : Session.t -> race list Budget.outcome
(** {!feasible_races_session} with degradation made explicit:
    [Bound_hit] when the session budget was exhausted, meaning the list
    is a sound under-report of the feasible races. *)

val first_races_session : Session.t -> race list
(** The {e first} feasible races: those not preceded by another feasible
    race.  Race [r1] precedes [r2] when both of [r1]'s events happen
    before both of [r2]'s in the observed execution's happened-before
    order; a non-first race may be an artifact (the earlier race could
    have changed the execution before the later pair ever met), so
    debugging starts here — the refinement Netzer's later work develops.
    Reuses the session's (possibly cached) {!feasible_races_session} set
    instead of re-deciding every pair.  The observed order is read along
    the recorded schedule: @raise Replay.Not_replayable when that
    schedule does not replay. *)

val first_races_session_outcome : Session.t -> race list Budget.outcome

val pp_race : Execution.t -> Format.formatter -> race -> unit
