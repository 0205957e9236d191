(** Memoized state-space engine over feasible executions.

    A state is the pair (set of completed events, event-variable flags);
    semaphore counts are a function of the completed set.  Where
    {!Enumerate} walks every feasible schedule (worst case [n!]), this
    engine memoizes on states, so queries cost one traversal of the
    reachable state graph — still exponential in the worst case (the paper
    proves no engine can avoid that) but usually far smaller, which the
    ablation benchmark quantifies.  Memo keys are states packed into
    machine words (completed/event-flag bit vectors plus binary-semaphore
    counters) probed through {!Wordtbl} from a reused scratch buffer, so a
    memo hit allocates nothing.

    Schedule-level queries decide the happened-before relations exactly:
    [exists_before a b] is could-have-happened-before ([a CHB b]) and
    [must_before a b] is must-have-happened-before ([a MHB b]). *)

type t

val create : ?stats:Counters.t -> ?budget:Budget.t -> Skeleton.t -> t
(** Builds an engine; all queries share one memo table per query kind.

    [?stats] accumulates [Reach_memo_hits] / [Reach_memo_misses] as
    queries run, and [Reach_queries] per {!exists_before} /
    {!witness_before} / {!exists_race} call.  Memo statistics depend on
    query order and on how work was split across engines, so unlike the
    search counters they are {e not} invariant across [jobs].

    [?budget] is polled once per distinct state expanded.  Unlike
    {!Enumerate}, a state-space query has no meaningful partial value, so
    expiry raises {!Budget.Expired} out of any query on this [t] — the
    session layer catches it and degrades to a typed [Bound_hit] answer;
    the exception never crosses the public analysis APIs.  The memo
    tables only ever hold fully-computed entries, so a [t] that raised
    stays sound for further (immediately-expiring) queries. *)

val stats_commit : t -> unit
(** Folds the engine's memo-table probe/resize totals ({!Wordtbl.probes})
    into [Reach_tbl_probes] / [Reach_tbl_resizes].  Deltas only —
    idempotent between queries, so callers may commit whenever a report
    is about to be read. *)

val skeleton : t -> Skeleton.t

val feasible_exists : t -> bool
(** Is [F(P)] non-empty?  (Always true for a skeleton built from an actual
    trace — the observed schedule itself is feasible.) *)

val schedule_count : t -> int
(** Number of feasible complete schedules, counted by dynamic programming
    over states (no schedule is materialized).  Saturates at
    {!count_saturation} instead of overflowing. *)

val count_saturation : int
(** Ceiling for {!schedule_count} ([10^18]). *)

val count_and_before : t -> Rel.t -> int
(** [count_and_before t rel] returns {!schedule_count} and adds to [rel]
    every pair [(a, b)] with [exists_before t a b] — the whole
    could-have-happened-before matrix from one pass over the reachable
    states, where [n²] {!exists_before} calls would walk them once per
    pair.  The rule: [a] can run before [b] iff some reachable state
    that can still complete has [a] done and [b] not.  The pass keeps
    its own state table, so the result never depends on what earlier
    queries left in the memo tables; it counts one [Reach_queries], and
    its table's memo hits and misses, probes and resizes.  On
    {!Budget.Expired} the pairs already proved stay in [rel]: a sound
    under-approximation. *)

val reachable_state_count : t -> int

val deadlock_reachable : t -> bool
(** Can the re-execution paint itself into a corner — a reachable state
    with pending events but nothing enabled? *)

val deadlock_witness : t -> int array option
(** A partial feasible schedule ending in a stuck state, when one exists.
    [Some _] exactly when {!deadlock_reachable}. *)

val exists_before : t -> int -> int -> bool
(** [exists_before t a b]: some feasible schedule runs [a] before [b].
    [false] when [a = b]. *)

val must_before : t -> int -> int -> bool
(** [must_before t a b]: every feasible schedule runs [a] before [b], and at
    least one feasible schedule exists.  Equals
    [feasible_exists t && not (exists_before t b a)] for [a <> b]. *)

val witness_before : t -> int -> int -> int array option
(** [witness_before t a b]: a complete feasible schedule that runs [a]
    before [b], when one exists.  [Some _] exactly when
    [exists_before t a b]; the witness makes a could-have ordering
    tangible (and replayable — it passes {!Replay.check}). *)

val exists_race : t -> int -> int -> bool
(** [exists_race t a b]: is there a reachable state from which [a] and [b]
    can execute in either order, with the run completing both ways?  This
    is the operational could-have-been-concurrent-with: the two events can
    be scheduled back-to-back in both orders from identical context, i.e.
    nothing forces an order between them at that point.  For semaphore-only
    programs this coincides with incomparability in some pinned order
    (see {!Pinned}). *)

val race_witness : t -> int -> int -> (int array * int array) option
(** Two complete feasible schedules sharing a prefix after which the pair
    runs back-to-back in opposite orders — the interleavings a race report
    should show.  [Some _] exactly when {!exists_race}. *)
