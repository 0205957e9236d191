(** Deterministic multicore fan-out for the exact engines.

    The feasible-schedule DFS has a convenient structure for parallelism:
    the subtrees below the feasible prefixes of any fixed depth partition
    the schedule space, and every per-schedule accumulation the analyses
    perform (relation-bit unions, schedule counts, class-set unions) is
    commutative and associative.  So the tree is cut at a shallow depth
    into independent subtree tasks, worker domains drain the task array
    through an atomic cursor, and results are merged {e in task order} —
    the outcome is bit-identical whatever the interleaving of domains, and
    identical to the sequential engine's.

    Telemetry follows the same discipline: split-depth probing is never
    counted, the chosen depth is re-walked once with counters on, and
    per-worker counters merge in task order — so every search counter is
    bit-identical across [jobs] too.  Only [Par_tasks] / [Par_merges],
    the memo statistics and the wall-clock fields depend on [jobs].

    Tasks must not share mutable state: each worker builds its own search
    state / memo tables from the (immutable) skeleton.  Early-stopping
    queries ([?limit]) stay sequential — a cross-subtree cutoff is
    order-dependent by nature. *)

val default_jobs : unit -> int
(** Worker-domain count from the [EO_JOBS] environment variable via
    {!Config.jobs} (default [1]; malformed values warn on stderr and fall
    back to [1]).  Read once and cached. *)

val map :
  ?telemetry:Telemetry.t ->
  ?budget:Budget.t ->
  jobs:int ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** [map ~jobs f xs] applies [f] to every element using up to [jobs]
    domains, and never more than [Domain.recommended_domain_count ()]
    (the calling domain participates, and with one domain runs every
    task itself).  Results are returned in input order.
    [f] must be safe to run concurrently with itself on distinct
    elements.  Spawned domains start from the environment defaults of
    the domain-local switches ({!Engine.current}, {!Memmodel.current}):
    [f] must take what it needs from its closure (a session's engine, a
    skeleton's model), never read them.

    If a task raises, every domain is still joined (workers stop
    claiming new tasks, in-flight tasks finish) and the exception of the
    {e lowest-indexed} failing task is re-raised — deterministic
    whatever the domain interleaving, so [Enumerate.Stop]-style early
    exits behave identically across runs.

    With [?budget], workers re-check the wall-clock deadline between
    tasks, also when only one domain runs (one requested, or a one-CPU
    host); the budget's trip flag is shared by every domain, so one
    domain hitting the deadline makes every remaining task near-instant
    (a budget-aware [f] stops on its first poll) while [map] still
    returns a complete array of partial accumulators.

    With [?telemetry], each domain's wall-clock time is added to the
    report (domain 0 is the caller), one entry per domain that ran. *)

val split_prefixes :
  ?stats:Counters.t -> Skeleton.t -> jobs:int -> (int * int array array) option
(** Feasible prefixes at the chosen split depth — the shallowest depth
    (≤ 8) yielding at least [4 × jobs] tasks, falling back to the deepest
    depth with ≥ 2; [None] when the search tree never branches (caller
    should stay sequential).  Returns the depth alongside the tasks;
    feed each prefix to {!Enumerate.iter_from}.  With [?stats], the
    chosen depth's walk is counted (probing is not) and [Par_tasks] is
    added. *)

val split_por_tasks :
  ?stats:Counters.t -> Skeleton.t -> jobs:int -> (int * Por.task array) option
(** Same heuristic over the sleep-set tree ({!Por.tasks}); feed each to
    {!Por.iter_task}. *)

val count :
  ?limit:int ->
  ?jobs:int ->
  ?stats:Counters.t ->
  ?budget:Budget.t ->
  Skeleton.t ->
  int
(** Parallel {!Enumerate.count} (exact, deterministic).  [jobs] defaults
    to {!default_jobs}; [?limit] caps the count and (being
    order-dependent) forces the sequential path, as everywhere else.
    Under an exhausted [?budget] the count is a partial (under-)count,
    exactly as with a [?limit] hit. *)
