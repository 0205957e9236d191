(** Shared analysis sessions: search once, answer every query.

    Every exact analysis in this repository — the six Table-1 relation
    matrices, per-pair decision procedures, race feasibility, the
    theorem checkers — quantifies over the {e same} set of feasible
    executions, yet historically each entry point launched its own
    traversal.  A [Session.t] owns one program (as a {!Skeleton.t}) and
    amortizes the exponential work three ways:

    - {b one pass, many consumers}: analyses register folds over the
      feasible schedules ({!fold_schedules}, {!fold_pinned}) or over the
      POR representatives ({!fold_classes}); all folds registered on a
      pass are driven by a single traversal, sequential or Domain-
      parallel with deterministic task-order merging (bit-identical to
      [jobs = 1]).  The API is resumable: folds registered after a pass
      ran are served by a fresh pass, earlier results stay valid.
    - {b one memoized state engine}: {!reach} is created once and shared
      by every reachability query the session answers.
    - {b a keyed result cache}: results are stored under the
      {!Program_key} canonical content hash in an in-memory LRU and,
      optionally, an on-disk cache ([EO_CACHE_DIR] / [--cache]).  Cache
      entries are versioned and keyed by (program hash, result kind,
      engine, memory model, limit): any mismatch — a different engine or
      model, a different enumeration cap, a different program, a future
      format bump — is a miss, never a wrong answer.  Payloads are
      stored in canonical event coordinates, so a result cached under
      one event numbering is served to any renumbering of the same
      program.

    A session's engine ({!Engine.current}) and memory model (its
    skeleton's [model]) are read once, when it is made, and fixed for
    its whole life: switching either afterwards — on this domain or any
    other — changes no answer and no counter of an existing session.

    Sessions are single-domain objects: create and query them from one
    domain (the passes spawn their own workers internally).  The
    process-wide LRU behind them {e is} domain-safe: sessions living on
    different domains — the analysis server's worker pool — share it as
    cross-request state, so a hot program submitted by many clients is
    computed once and served from memory after that.  Activity is
    observable through the [session_*] / [cache_*] counters of
    {!Counters} when the session carries a {!Telemetry.t}. *)

type t

(** {2 Caching policy} *)

type cache = {
  memory : bool;  (** consult/populate the process-wide LRU *)
  dir : string option;  (** on-disk cache directory (absolute), if any *)
}

val no_cache : cache
(** Caching fully disabled — the default for {!create}, and what the
    legacy one-shot wrappers use, so their counter reports stay
    reproducible run to run. *)

val default_cache : unit -> cache
(** LRU enabled; disk directory from [EO_CACHE_DIR] ({!Config.cache_dir})
    when set.  What the CLI uses. *)

val clear_memory_cache : unit -> unit
(** Empties the process-wide LRU (tests). *)

(** {2 Construction and accessors} *)

val create :
  ?limit:int -> ?jobs:int -> ?stats:Telemetry.t -> ?budget:Budget.t ->
  ?cache:cache -> Skeleton.t -> t
(** [limit] caps enumeration passes (uniform semantics: capped walks are
    sound under-approximations and stay sequential); [jobs] (default
    [1]) sets the worker-domain count for parallel passes; [cache]
    defaults to {!no_cache}.

    The engine is the domain's {!Engine.current} at this call; a [stats]
    report is stamped here with it and [jobs], whatever query runs
    later (or none).

    [budget] (default {!Budget.unlimited}) bounds every engine this
    session drives — enumeration and POR walks stop at the deadline like
    a [?limit] hit, reachability and SAT queries abort and degrade.  No
    [Budget.Expired] ever escapes this API: the plain queries below fold
    expiry into the sound direction of each relation, and the [_outcome]
    variants say explicitly whether the answer is [Exact] or a
    [Bound_hit].  Budget-truncated results are never written to the
    cross-session cache. *)

val of_execution :
  ?limit:int -> ?jobs:int -> ?stats:Telemetry.t -> ?budget:Budget.t ->
  ?cache:cache -> Execution.t -> t

val skeleton : t -> Skeleton.t
val execution : t -> Execution.t

val engine : t -> Engine.t
(** The engine the session was made under. *)

val key : t -> Program_key.t
(** The canonical content hash (computed lazily on first use). *)

val limit : t -> int option
val jobs : t -> int
val budget : t -> Budget.t
val telemetry : t -> Telemetry.t option

val reach : t -> Reach.t
(** The shared memoized state engine (created on first use; all
    reachability queries of this session share its memo tables). *)

val schedule_count : t -> int
(** [|F(P)|] by the counting DP of {!Reach.schedule_count} — no
    enumeration, saturating at [Reach.count_saturation].  Budget expiry
    degrades to [0] (the only sound under-count); use
    {!schedule_count_outcome} to tell the cases apart. *)

(** {2 Per-pair ordering queries — the tier ladder}

    The decision-procedure primitives every relation reduces to.  Each
    runs the session engine's ladder, a cost-ordered list of tiers, each
    of which decides the query or gives way to the next: [Naive] and
    [Packed] are the shared {!reach} engine alone; [Sat] is one compiled
    feasibility formula ({!Encode.build}, created lazily like {!reach})
    probed under assumptions; [Auto] is the triage ladder described
    below.  Every positive SAT answer is decoded into a witness schedule
    and certified by the [Replay] oracle before it is reported — an
    encoder defect raises [Invalid_argument] rather than returning a
    wrong answer. *)

val feasible_exists : t -> bool

val exists_before : t -> int -> int -> bool
(** Could [a] happen before [b] in some feasible execution?  [false]
    when [a = b]. *)

val must_before : t -> int -> int -> bool
(** [a <> b], the program is feasible, and no feasible execution runs
    [b] before [a]. *)

val witness_before : t -> int -> int -> int array option
(** A feasible schedule running [a] strictly before [b], if any. *)

val exists_race : t -> int -> int -> bool
(** The back-to-back race condition of [Reach.exists_race] on this
    session's skeleton: some reachable state enables [a] and [b], both
    orders step, and both complete. *)

(** {2 Outcome-typed queries — deadline-aware}

    Each [_outcome] variant runs the query under the session budget and
    reports whether the answer is exact.  On expiry the value is the
    sound degradation for that relation: could-have queries ([exists_*],
    [witness_*]) under-report ([false] / [None] / partial bits, the same
    direction as [?limit]); must-have queries over-approximate ([true]);
    counts under-count.  A degraded answer bumps [timeout_expirations]
    and [timeout_degraded_queries].  The plain functions above are these
    with [Budget.value] applied. *)

val feasible_exists_outcome : t -> bool Budget.outcome
val exists_before_outcome : t -> int -> int -> bool Budget.outcome
val must_before_outcome : t -> int -> int -> bool Budget.outcome
val witness_before_outcome : t -> int -> int -> int array option Budget.outcome
val exists_race_outcome : t -> int -> int -> bool Budget.outcome
val schedule_count_outcome : t -> int Budget.outcome

(** {2 The auto engine's tier-1 oracle}

    Under [Engine.Auto] every per-pair primitive runs a tiered triage
    ladder: the attached approximation oracle, then the memoized state
    engine, then the SAT backend (at [n <= 128]), then bounded
    enumeration — tiers 2–4 each under their own {!Budget.sub} slice of
    the session budget ([EO_TRIAGE_REACH_NODES], [EO_TRIAGE_SAT_CONFLICTS],
    [EO_TRIAGE_ENUM_NODES]).  A tier that cannot decide escalates
    (counted in [triage_escalations]); answers are counted per tier in
    the [triage_tier_hits_*] counters; session-budget expiry degrades in
    the relation's sound direction exactly as under the other engines.
    The auto session answers each query once, and [a = b] without a
    tier.  The race layer's per-pair decisions ({!decide_race}) run the
    very same ladder, with slices per pair instead of per session.

    The oracle itself lives a layer up (the triage library owns the
    approximation devices); sessions only know the verdict shape.  With
    no oracle attached the ladder simply starts at tier 2. *)

type oracle = {
  o_feasible : unit -> bool option;
  o_exists_before : int -> int -> bool option;
  o_must_before : int -> int -> bool option;
  o_race : int -> int -> bool option;
}
(** [Some v] must be {e exact} for the session's skeleton (the attacher
    clamps one-sided devices to their sound direction); [None] means
    "this tier cannot decide — escalate". *)

val set_oracle : t -> oracle -> unit
val has_oracle : t -> bool

val decide_race :
  Engine.t -> stats:Counters.t -> budget:Budget.t -> ?oracle:oracle ->
  Skeleton.t -> int -> int -> bool
(** One {!exists_race} query on a skeleton no session owns (the race
    layer decides each candidate pair with the pair's own dependence
    edges dropped), by the same ladder a session of that engine runs:
    built fresh for this one pair — its own engines and budget slices —
    with [oracle] as tier 1 under [Auto].  The state engines' memo
    statistics are committed to [stats] before returning.
    @raise Budget.Expired when [budget] runs out; the caller
    degrades. *)

val encode_program : Skeleton.t -> Encode.program
(** The projection the SAT backend compiles — exported so the CLI's
    [encode] subcommand can dump the very same formula as DIMACS. *)

(** {2 Registered folds — the consumer API}

    A fold is [init]/[visit]/[merge]: [init] allocates one accumulator
    (called once for the sequential path, once per subtree task for the
    parallel path), [visit] folds one schedule into it, and [merge dst
    src] combines per-task accumulators {e in task order} — it must be
    commutative and associative for the parallel result to equal the
    sequential one.  Registration returns a handle; {!result} forces the
    owning pass (driving every fold registered on it so far) and yields
    this fold's accumulator.  The schedule array passed to [visit] is
    reused between calls — copy to keep. *)

type 'a handle

val fold_schedules :
  t ->
  init:(unit -> 'a) ->
  visit:('a -> int array -> unit) ->
  merge:('a -> 'a -> unit) ->
  'a handle
(** Folds over {e every} feasible schedule (the full-enumeration pass,
    up to the session [limit]). *)

val fold_pinned :
  t ->
  init:(unit -> 'a) ->
  visit:('a -> int array -> Rel.t -> unit) ->
  merge:('a -> 'a -> unit) ->
  'a handle
(** Like {!fold_schedules}, but [visit] also receives the pinned partial
    order {!Pinned.po_of_schedule} of each schedule — computed once per
    schedule and shared by every pinned fold on the pass. *)

val fold_classes :
  t ->
  init:(unit -> 'a) ->
  visit:('a -> int array -> Rel.t -> unit) ->
  merge:('a -> 'a -> unit) ->
  'a handle
(** Folds over POR {e representatives} (at least one schedule per
    commutation class, usually exponentially fewer than [F(P)]), with
    each representative's pinned order.  Sound for per-class properties
    only. *)

val result : 'a handle -> 'a
(** Forces the pass this handle was registered on, if it has not run
    yet, and returns the fold's accumulator.  Idempotent. *)

val full_pass_stats : t -> (int * bool) option
(** [(feasible, truncated)] of the last full-enumeration pass, if one
    ran: how many schedules were visited and whether the [limit] cut the
    walk short. *)

(** {2 Cached whole-program summaries} *)

type summary = {
  n : int;
  feasible_count : int;
  truncated : bool;
  distinct_classes : int;
  before_some : Rel.t;
  comparable_some : Rel.t;
  incomparable_some : Rel.t;
}
(** Mirrors [Relations.t] (which is rebuilt from it): the three
    existential bit matrices every Table-1 relation derives from, plus
    the counts. *)

val summary : t -> summary
(** The summary the [relations] query answers: {!summary_reduced} —
    the same record at the cost of the reachable state space — unless a
    [limit] applies or the engine is [Naive], where it is
    {!summary_enumerated}. *)

val summary_reduced : t -> summary
(** The class-level summary, under every engine: [feasible_count] and
    every happened-before bit from one pass over the shared {!reach}
    engine's reachable states ({!Reach.count_and_before}), comparability
    bits and class count as a {!fold_classes} over POR representatives.
    Served from cache when possible (kind [summary-reduced]), else
    computed and stored. *)

val summary_enumerated : t -> summary
(** The summary by full enumeration of [F(P)] — the reference path:
    a {!fold_pinned} on this session, cached under its own kind
    ([summary-full]) since a [limit] truncates the two differently. *)

val encode_summary : Program_key.t -> summary -> string
(** The cache payload of a summary — the one format the memory LRU and
    the disk tier both hold (under version [eocache/2]) — in the key's
    canonical coordinates, so any renumbering of the program decodes it.
    A header line [N COUNT TRUNCATED CLASSES] (decimal, [TRUNCATED] 0 or
    1), then one line per relation (before-some, comparable-some,
    incomparable-some): its [n] canonical rows, each as
    [⌈n / Sys.int_size⌉] lowercase hex words, every word of the line
    separated by one space; then an FNV-1a checksum of every byte before
    it, in the same hex. *)

val decode_summary : Program_key.t -> string -> summary option
(** The inverse of {!encode_summary} under any key of the same program.
    [None] on anything else — a bad digit, a number past [max_int], a
    wrong row or word count, a bit at a column [>= n], a checksum
    mismatch, trailing bytes; never raises.  A hand-rolled scanner:
    no [Scanf], no line splitting. *)

val summary_outcome : t -> summary Budget.outcome
(** {!summary} with truncation made explicit: [Bound_hit] whenever the
    record's [truncated] flag is set — by [?limit] or by the budget. *)

val summary_reduced_outcome : t -> summary Budget.outcome

val from_summary : t -> (summary -> 'a) -> 'a option
(** [from_summary t f] is [Some (f s)] when this session already holds
    an exact class-level summary [s] — {!summary_reduced} ran on it, or
    was served from cache, with [truncated = false] — and its engine is
    not [Naive] (the reference keeps its pairs on its own ladder); the
    read counts as one answer under the session's memory model, as a
    per-pair query does.  [None] otherwise: nothing is computed. *)

val cached_blob : t -> kind:string -> (unit -> string) -> string
(** [cached_blob t ~kind produce] serves an arbitrary consumer-encoded
    payload from the session cache under this session's key and the
    given [kind] (e.g. the race layer stores its feasible-race set), or
    runs [produce] and stores its result.  Payload coordinates are the
    consumer's business — encode via {!key} if event ids are involved. *)
