(** Partial-order reduction (sleep sets) over the feasible-schedule space.

    Two adjacent schedule steps commute when they belong to different
    processes, touch no common synchronization object, and have no
    dependence between them; schedules equal up to such swaps realize the
    same pinned partial order (the FIFO pairing and trigger assignment only
    read per-object subsequences).  Sleep-set exploration (Godefroid)
    visits at least one representative of every commutation class while
    skipping most of its members — often exponentially fewer schedules, with
    every distinct pinned order still observed.

    Two implementations sit behind {!iter_representatives} (selected by
    {!Engine}): the seed search with list-based sleep sets over a full
    ready scan, and the packed search, which precomputes the independence
    relation as a bit matrix ({!independence}) and keeps sleep/explored
    sets as preallocated per-depth bitsets, walking the maintained
    {!Enumerate} frontier.  Both visit the same representatives in the
    same order.

    This accelerates the class-level analyses (the concurrent-with /
    ordered-with matrices, distinct-class counting); the happened-before
    side is served by {!Reach} instead, because order bits differ between
    members of one class.  Property tests check that the set of pinned
    orders found equals full enumeration's on random programs. *)

val iter_representatives :
  ?limit:int ->
  ?stats:Counters.t ->
  ?budget:Budget.t ->
  ?engine:Engine.t ->
  Skeleton.t ->
  (int array -> unit) ->
  int
(** [iter_representatives sk f] calls [f] on representative feasible
    schedules — at least one per commutation class — and returns how many
    were visited.  The array is reused between calls.

    [?stats] accumulates [Por_nodes] / [Por_pops] / [Por_sleep_prunes] /
    [Por_indep_refinements] / [Por_reps] (plus [Limit_truncations]).
    Pop counts are engine-relative ([?engine], default
    {!Engine.current}); sleep-prune counts are identical across engines
    — both prune exactly the ready-but-asleep candidates.

    [?budget] is polled once per tree node; expiry stops the walk like a
    [?limit] hit (representatives already visited stand,
    [Timeout_expirations] is bumped, no exception escapes). *)

val count_representatives :
  ?limit:int -> ?stats:Counters.t -> ?budget:Budget.t -> Skeleton.t -> int

val independent : Skeleton.t -> int -> int -> bool
(** The static independence relation used for commutation: different
    processes, no shared synchronization object, no dependence edge either
    way.  (Exposed for tests.) *)

val independence : Skeleton.t -> Rel.t
(** The whole relation as a symmetric bit matrix; row [e] is
    [{ u | independent u e }], so one sleep-set refinement is a single
    row intersection. *)

(** {2 Subtree tasks}

    Hooks for {!Parallel}: the sleep-set tree splits at a chosen depth
    into independent subtree tasks.  Unlike plain enumeration the prefix
    alone is not enough — a task must also carry the sleep set its node
    was reached with, otherwise workers would re-explore schedules the
    sequential search intentionally skips (and double-count classes). *)

type task = { prefix : int array; sleep : Bitset.t }

val tasks :
  ?stats:Counters.t -> ?budget:Budget.t -> Skeleton.t -> depth:int -> task list
(** All sleep-set tree nodes at exactly [depth], in visit order.  Their
    subtrees partition the representative schedules: summing
    {!iter_task} over all tasks equals [count_representatives] with no
    representative visited twice.  Requires [0 <= depth < n].  With
    [?stats], counts the tree nodes strictly above [depth] — the split
    walk's share, complementing {!iter_task}'s. *)

val iter_task :
  ?stats:Counters.t ->
  ?budget:Budget.t ->
  Skeleton.t ->
  task ->
  (int array -> unit) ->
  int
(** Enumerates (with the packed search, irrespective of {!Engine}) the
    representatives in one task's subtree; the array passed to [f]
    carries the prefix in place.  Safe to call from a worker domain with
    its own [Skeleton.t]-derived state. *)
