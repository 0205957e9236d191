(** Exhaustive enumeration of the feasible program executions [F(P)].

    Every complete schedule produced respects program order, preserves the
    observed shared-data dependences, and never runs a blocked
    synchronization operation; deadlocking prefixes are pruned.  The search
    is exponential in general — this is the engine whose cost Theorems 1–4
    prove unavoidable.

    Two interchangeable implementations sit behind {!iter} (selected by
    {!Engine}): the seed search, which rescans all [n] events at every
    node, and the packed search, which maintains the structurally-ready
    frontier as a bitset and only tests synchronization enabledness on
    frontier members.  Both enumerate the same schedules in the same
    (lexicographic) order. *)

exception Stop
(** Raise from an {!iter} callback to end enumeration early. *)

val iter :
  ?limit:int ->
  ?stats:Counters.t ->
  ?budget:Budget.t ->
  ?engine:Engine.t ->
  Skeleton.t ->
  (int array -> unit) ->
  int
(** [iter ?limit sk f] calls [f] on every feasible complete schedule (the
    array is reused; copy to keep) and returns how many were visited.
    Enumeration order is deterministic (lexicographic by event id).

    [?stats] (default {!Counters.null}, i.e. off) accumulates
    [Enum_nodes] / [Enum_pops] / [Enum_schedules] / [Limit_truncations];
    pop counts are engine-relative (the naive scan examines all [n]
    candidates per node, the packed one only frontier members).
    [?engine] (default {!Engine.current}) picks the scan: [Naive] runs
    the seed search, every other engine the packed one.

    [?budget] (default {!Budget.unlimited}) is polled once per interior
    node; expiry stops the search exactly like a [?limit] hit — the
    schedules already visited stand, [Timeout_expirations] is bumped,
    and no exception escapes. *)

val count :
  ?limit:int -> ?stats:Counters.t -> ?budget:Budget.t -> Skeleton.t -> int

val all : ?limit:int -> Skeleton.t -> int array list

val exists : Skeleton.t -> (int array -> bool) -> bool
(** Early-exits on the first schedule satisfying the predicate. *)

val first : Skeleton.t -> int array option
(** The lexicographically first feasible schedule, if any. *)

val exists_order :
  ?budget:Budget.t ->
  ?engine:Engine.t ->
  Skeleton.t ->
  before:int ->
  after:int ->
  bool
(** [exists_order sk ~before:a ~after:b]: is there a feasible schedule in
    which [a] is scheduled before [b]?  (This is exactly the could-have-
    happened-before relation; see {!DESIGN.md}.)  Prunes branches where [b]
    was scheduled first, so it is cheaper than filtering {!iter}.  Budget
    expiry yields [false] — a sound under-report, as with [?limit].
    [?engine] picks the scan as in {!iter}. *)

(** {2 Subtree tasks}

    Hooks for {!Parallel}: the DFS splits at a frontier depth into
    independent subtree tasks, one per feasible prefix.  The union of the
    schedules below all prefixes of one depth is exactly the full
    enumeration (each complete schedule extends exactly one prefix), so
    per-task results merge deterministically. *)

val feasible_prefixes :
  ?stats:Counters.t ->
  ?budget:Budget.t ->
  Skeleton.t ->
  depth:int ->
  int array list
(** All feasible schedule prefixes of exactly [depth] events, in
    lexicographic order.  [0 <= depth <= n]; prefixes that cannot be
    completed are included (their subtrees are simply empty).

    With [?stats], counts the interior nodes strictly above [depth] —
    the split walk's share of the search, complementing what the
    subtree tasks count via {!iter_from} so parallel totals equal the
    sequential ones. *)

val iter_from :
  ?limit:int ->
  ?stats:Counters.t ->
  ?budget:Budget.t ->
  Skeleton.t ->
  prefix:int array ->
  (int array -> unit) ->
  int
(** [iter_from sk ~prefix f] enumerates (with the packed search,
    irrespective of {!Engine}) the feasible complete schedules extending
    [prefix]; the array passed to [f] carries the prefix in place.  Raises
    [Invalid_argument] if [prefix] is not feasible.  The prefix replay is
    never counted in [?stats] — only search work below it. *)

(** {2 Search internals}

    The incremental search state, exposed so {!Por} can layer sleep-set
    pruning over the same machinery.  Invariant: every {!execute} is undone
    with its token in reverse order; [frontier] always holds exactly the
    not-yet-done events with no outstanding predecessors. *)

type search = {
  sk : Skeleton.t;
  n : int;
  pending : int array;
  succs : int array array;
  done_ : bool array;
  sem : int array;
  ev : bool array;
  schedule : int array;
  frontier : Bitset.t;
}

val make_search : Skeleton.t -> search

val ready : search -> int -> bool
(** Preconditions of one event in the current state. *)

val sync_enabled : search -> int -> bool
(** Just the synchronization component of {!ready} — the only part that
    needs testing for events already on the frontier. *)

val execute :
  search -> int -> [ `Sem of int * int | `Ev of int * bool | `None ]
(** Applies the event; returns the undo token. *)

val undo : search -> int -> [ `Sem of int * int | `Ev of int * bool | `None ] -> unit
