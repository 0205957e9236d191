(** Pluggable memory models.

    The paper's feasibility axioms F1–F3 describe sequentially
    consistent interleaving; this module makes that semantics one
    instance of a memory-model parameter threaded through every
    analysis.  A model is a *program-order filter*: it decides which
    program-order pairs every feasible schedule must respect
    ({!enforced}), with the store-buffer relaxations of TSO and PSO
    expressed over event kinds (the execution model carries no values):

    - [Sc] — every program-order pair is enforced (the legacy F1–F3
      semantics; all downstream code paths are bit-identical to the
      pre-model implementation).
    - [Tso] — a pure write is not enforced before a later pure read of
      its own process (the store sits in a FIFO buffer while later
      reads proceed).
    - [Pso] — a pure write is additionally not enforced before a later
      independent pure write (per-location buffers drain out of
      order).

    Synchronization events and mixed read-write computations act as
    full fences under every model.  Per-location coherence is
    preserved independently of the filter: conflicting same-location
    accesses remain ordered through the execution's dependence edges
    (feasibility side) and through explicit coherence pairs
    ([Candidate], consistency side).

    The selected model is domain-local state exactly like
    [Engine.current]: resolved lazily from [EO_MODEL] (shared [Config]
    parser) and overridden per-request by [set].  A skeleton reads it
    once, when it is made ([Skeleton.of_execution]), and carries it as
    its [model] field from then on. *)

type t = Sc | Tso | Pso

val to_string : t -> string
(** ["sc"], ["tso"], ["pso"] — the vocabulary in {!Config.model_names}. *)

val of_string : string -> t option
(** The model of {!all} that {!to_string} prints as the argument, so it
    accepts exactly those names; [None] for anything else
    ([Config.model_of_string] folds case and whitespace first). *)

val names : string list
(** = {!Config.model_names}, the closed vocabulary in documentation
    order. *)

val all : t list
(** Every model, in {!names} order. *)

val default_of_env : unit -> t
(** The model [EO_MODEL] selects (default [Sc]). *)

val current : unit -> t
(** The domain-local selection, seeded from {!default_of_env} on first
    read. *)

val set : t -> unit
(** Override the domain-local selection (CLI flag, per-request model,
    differential tests): picks the model of the skeletons — and so of
    the sessions — made after it on this domain. *)

val counter_key : t -> Counters.key
(** The per-model query counter ([Model_queries_sc] etc.). *)

val is_pure_write : Event.t -> bool
(** A computation event that writes shared variables and reads none —
    the only event kind a store buffer may delay. *)

val is_pure_read : Event.t -> bool
(** A computation event that reads shared variables and writes none —
    the only event kind that may overtake a buffered store. *)

val enforced : t -> Event.t -> Event.t -> bool
(** [enforced m a b]: must the program-order pair [a] before [b] be
    respected by every schedule feasible under [m]?  Kind-only; callers
    apply it to program-order-related pairs. *)

val relaxes : t -> bool
(** [true] iff the model can drop at least one program-order pair
    ([m <> Sc]). *)

val ppo : t -> Execution.t -> Rel.t
(** The preserved-program-order relation: the transitive closure of the
    {!enforced} pairs of the execution's program-order closure.  The
    closure is taken over the *filtered pair set* (not the filtered
    closure), so orderings through fences survive: in
    [w x; P(s); r y] the write stays ordered before the read under
    every model because both pairs flanking the fence are enforced.
    Under [Sc] this is exactly [Execution.po_closure]. *)
