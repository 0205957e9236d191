(** The partial order pinned down by one feasible schedule.

    A feasible schedule σ represents a whole class of concrete executions:
    any timing that keeps each event after the constraints σ realized.  The
    pinned partial order [po(σ)] is the transitive closure of:

    - the immediate program-order edges;
    - the observed shared-data dependence edges;
    - per counting semaphore, the edge from the (i − init)-th [V] to the
      i-th [P], both counted in σ order — exactly the token-availability
      constraint (a [P] cannot begin until enough [V]s completed);
    - per event variable, the edge from the {e earliest} [Post] since the
      last [Clear] to each [Wait] it enables (the post whose completion
      first made the wait runnable; later posts in the same set-interval
      are redundant and can race with the wait).  A [Wait] enabled by the
      variable's initial state needs no edge.

    Two events incomparable in [po(σ)] can overlap in time within this
    class: this is what the concurrent-with relations of Table 1 quantify
    over.  Two events comparable in [po(σ)] occur in that order in every
    timing of the class.

    For programs whose only synchronization is semaphores, the pinning is
    exact: every linear extension of [po(σ)] is itself a feasible schedule
    (token counting survives any reordering that keeps each [P] after its
    matched [V]), so incomparability coincides with the operational
    possible-race notion of {!Reach.exists_race}.  [Clear] introduces
    genuinely disjunctive timing constraints ("the clear completes before
    the triggering post or after the wait begins") that no edge set can
    capture; there the pinned order errs toward incomparability and the
    property tests quantify the agreement. *)

val po_of_schedule : Skeleton.t -> int array -> Rel.t
(** [po_of_schedule sk schedule] computes the transitively closed pinned
    partial order.  The schedule must be feasible (checked with
    {!Replay.require}; raises [Invalid_argument] with its message
    otherwise). *)

val sync_edges : Skeleton.t -> int array -> (int * int) list
(** Just the semaphore-pairing and wait-trigger edges, for inspection and
    tests. *)
