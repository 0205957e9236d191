(** The six ordering relations of Table 1, computed exactly.

    Given an observed execution [P] and its set [F(P)] of feasible program
    executions, the relations are:

    {v
                      must-have                      could-have
    happened-before   a MHB b: every feasible        a CHB b: some feasible
                      schedule runs a before b       schedule runs a before b
    concurrent-with   a MCW b: a,b incomparable      a CCW b: a,b incomparable
                      in every pinned order po(σ)    in some pinned order po(σ)
    ordered-with      a MOW b: a,b comparable in     a COW b: a,b comparable in
                      every po(σ)                    some po(σ)
    v}

    The happened-before pair is decided at schedule level (exact: a feasible
    execution with [a T b] exists iff a feasible schedule orders [a] first);
    the concurrent/ordered pairs quantify over the pinned partial order of
    each schedule class, where incomparability means the class admits
    timings in which the two events overlap (see {!Pinned} and DESIGN.md).

    The paper proves exact answers co-NP-hard (must-have) and NP-hard
    (could-have); the blow-up lives in the reachable state space, and
    that is what the default path pays.  Every matrix derives from three
    existential summaries, and the class-level summary computes them
    without walking [F(P)]: the happened-before bits and the count in
    one pass over the reachable states, the concurrent/ordered bits over
    one representative schedule per commutation class.  Exhausting
    [F(P)] is left to {!compute_enumerated}, the reference every other
    path is tested against, and to the two settings that need it: a
    [limit], and the naive engine. *)

type relation = MHB | CHB | MCW | CCW | MOW | COW

val all_relations : relation list

val relation_name : relation -> string

type t = {
  n : int;
  feasible_count : int;  (** schedules enumerated (capped at [limit]) *)
  truncated : bool;
      (** [true] when a [limit] or budget deadline cut the pass short *)
  distinct_classes : int;
      (** number of distinct pinned partial orders among the enumerated
          schedules — how many genuinely different executions hide behind
          the schedule count *)
  before_some : Rel.t;  (** [(a,b)]: some feasible schedule runs a before b *)
  comparable_some : Rel.t;  (** some po(σ) orders a and b (symmetric) *)
  incomparable_some : Rel.t;  (** some po(σ) leaves a,b unordered (symmetric) *)
}

val of_summary : Session.summary -> t
(** Rebuilds the record from a session summary (same fields, same
    semantics) — the bridge every entry point below goes through. *)

val of_session : Session.t -> t
(** What the [relations] query answers on a shared {!Session}
    ([Session.summary]): the class-level summary, or — under a [limit]
    or the naive engine — the full enumeration.  Served from the
    session's cache when warm. *)

val of_session_reduced : Session.t -> t
(** Class-level summary of a shared session ([Session.summary_reduced]),
    whatever its limit and engine. *)

val of_session_outcome : Session.t -> t Budget.outcome
(** {!of_session} with truncation made explicit: [Bound_hit] when a
    [limit] or the session budget cut the pass short, in which case the
    could-have relations are sound under-approximations and the
    must-have relations sound over-approximations. *)

val of_session_reduced_outcome : Session.t -> t Budget.outcome

val compute_enumerated :
  ?limit:int -> ?jobs:int -> ?stats:Telemetry.t -> Skeleton.t -> t
(** The reference: enumerates every feasible schedule (up to [limit],
    default unlimited) on a private, cache-disabled session and
    accumulates the three existential summaries
    ([Session.summary_enumerated]).  With a [limit] the result is a
    sound under-approximation of the could-have relations and an
    over-approximation of the must-have ones ([truncated] tells you).

    [jobs] (default [1]) enables the deterministic multicore fan-out of
    {!Parallel}: the enumeration splits at a shallow prefix depth into
    independent subtree tasks and per-worker accumulators are merged in
    task order, so the result is bit-identical to [jobs = 1].  Parallelism
    only engages without a [limit] (a cross-subtree cutoff would be
    order-dependent) and under the packed {!Engine}.

    [?stats] populates the given {!Telemetry.t} as the run goes: search
    counters, phase timers, and — for parallel runs — the split depth,
    per-task subtree sizes and per-domain wall times.  Search counters
    are bit-identical across [jobs] (split probing is uncounted, the
    chosen split is re-walked counted, per-worker counters merge in task
    order); only the [Par_*] counters, the {!Reach} memo statistics and
    every wall-clock field legitimately vary. *)

val compute_reduced :
  ?limit:int -> ?jobs:int -> ?stats:Telemetry.t -> Skeleton.t -> t
(** The same summary at state-space cost, on a private, cache-disabled
    session, under every engine: the happened-before bits and
    [feasible_count] (saturating at [Reach.count_saturation]) from one
    pass over the reachable states ({!Reach.count_and_before}),
    comparability bits by sleep-set partial-order reduction ({!Por} —
    one representative per commutation class instead of every
    schedule).  Equal to {!compute_enumerated} on every input
    (property-tested); exponentially faster on traces with many
    independent events — 68 million schedules collapse to a few
    thousand representatives on the Theorem 1 programs.  [jobs]
    (default [1]) splits the POR walk into sleep-set subtree tasks
    under the packed engine (deterministically); the reachability pass
    is sequential.

    [?limit] caps the representative walk: the comparability summaries
    become sound under-approximations and [truncated] is set when the
    walk was cut short, while the happened-before bits and
    [feasible_count] stay exact (they do not enumerate).  As everywhere,
    a [limit] keeps the capped walk sequential.  [?stats] as in
    {!compute_enumerated}. *)

val holds : t -> relation -> int -> int -> bool
(** [holds t r a b]: does [a r b]?  All relations are irreflexive here:
    [holds t r a a = false].  When [F(P)] is known to be empty every
    relation is empty: a must-have relation needs a feasible execution
    (a truncated summary presumes one). *)

val to_rel : t -> relation -> Rel.t
(** The full relation as a pair matrix, equal to {!holds} at every pair
    but built a row at a time from the summary's bit rows: a could-have
    relation is its matrix off the diagonal, a must-have relation the
    complement of its dual's (MHB of CHB transposed). *)

val pp_matrix : Format.formatter -> t * relation * Event.t array -> unit
(** Prints the relation as an event-by-event matrix with labels. *)

val pp_summary : Format.formatter -> t * Event.t array -> unit
(** Prints all six matrices. *)
