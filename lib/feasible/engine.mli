(** Selection between the exact decision engines.

    [Packed] (the default) is the bitset-frontier search with packed memo
    keys; [Naive] is the seed engine — a full [0 .. n-1] ready scan at
    every node and list-based sleep sets — kept as the oracle for
    differential tests.  [Sat] compiles the feasibility conditions to CNF
    once per program and answers per-pair ordering and race queries with
    the in-repo CDCL solver under assumptions (see [Eo_encode]); queries
    with no SAT formulation (class summaries, schedule counting) fall
    back to the packed search.  [Auto] is the tiered triage ladder: each
    per-pair query first consults the one-sided polynomial deciders of
    [lib/approx] (installed by [Triage.attach]), then escalates
    undecided survivors through memoized reachability, the SAT engine
    and finally bounded enumeration, each tier under its own
    [Budget.sub] slice; whole-space folds (class summaries, schedule
    counting) run the packed search.  All engines produce identical
    results on every query (property-tested); only the cost profile
    differs.

    The choice is read from the [EO_ENGINE] environment variable
    ([naive] / [packed] / [sat] / [auto], parsed by {!Config.engine}) on first
    use; {!set} overrides it.  The switch is {e domain-local}: each
    domain resolves its own copy (starting from the environment
    default), so a server worker pool can honour per-request engine
    selections without synchronization.  A {!Session.t} reads it once,
    when it is made, and keeps that engine for its whole life — on every
    domain its passes and race decisions fan out to. *)

type t = Naive | Packed | Sat | Auto

val current : unit -> t

val set : t -> unit
(** Picks the engine of the sessions made after it on this domain. *)

val default_of_env : unit -> t
(** The environment default ([EO_ENGINE], else [Packed]) without
    consulting or touching the domain-local override — what a server
    resolves per request so one request's {!set} never leaks into the
    next. *)

val to_string : t -> string
(** ["naive"], ["packed"], ["sat"], ["auto"] — the vocabulary in
    {!Config.engine_names}. *)

val all : t list
(** Every engine, in {!Config.engine_names} order. *)

val of_string : string -> t option
(** The engine of {!all} that {!to_string} prints as the argument, so it
    accepts exactly those names; [None] for anything else
    ([Config.engine_of_string] folds case and whitespace first). *)
