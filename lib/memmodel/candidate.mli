(** Candidate executions annotated with reads-from, and the per-model
    rf/co consistency checker.

    A candidate pairs an execution's events and program order with a
    complete {e reads-from} assignment: for every shared-variable read,
    either the event whose write it observed or the variable's initial
    value.  The checker decides whether some total memory order [L]
    explains the candidate under a {!Memmodel.t}:

    - [L] contains the model's preserved program order, strengthened
      per location (program-ordered conflicting accesses stay ordered
      under every model — SC-per-location coherence);
    - every rf edge [w -> r] has [w] before [r] in [L] with no other
      write to the same variable between them, and a read of the
      initial value has no write to its variable before it;
    - the coherence order [co] is read off [L] per location.

    Deciding is tiered like the engines: a polynomial saturation pass
    (the derived-ordering rules of the consistency-algorithm framework
    papers) refutes or, via a greedy linearization, certifies most
    candidates; survivors fall through to a CNF fragment solved by the
    in-repo CDCL.  Every positive verdict carries a {!witness} that
    {!check_witness} has validated — never a bare "sat". *)

type rf_edge = {
  write : int;  (** writing event id, or [-1] for the initial value *)
  read : int;  (** reading event id *)
  var : int;  (** shared variable *)
}

type t = private { execution : Execution.t; rf : rf_edge list }

type witness = {
  order : int array;  (** a consistent total memory order (event ids) *)
  co : (int * int list) list;
      (** per written variable, its writes in coherence order *)
}

type verdict = Consistent of witness | Inconsistent of string

exception Ill_formed of string
(** Raised by {!make} on an rf assignment that does not match the
    execution (unknown events, a non-read reading, duplicate or missing
    edges, a write that does not write the variable). *)

val infer_rf : Execution.t -> rf_edge list
(** The rf the observed schedule exhibits: each read observes the last
    write to its variable that ran temporally before it.  Requires a
    total temporal order (an observed trace). *)

val make : ?rf:rf_edge list -> Execution.t -> t
(** [rf] defaults to {!infer_rf}.  Validates completeness and
    well-formedness; raises {!Ill_formed} otherwise. *)

val check : ?stats:Counters.t -> model:Memmodel.t -> t -> verdict
(** The tiered decision described above.  [stats] receives
    [Consistency_checks] plus one of [Consistency_fast_hits] /
    [Consistency_sat_hits] per verdict. *)

val consistent : ?stats:Counters.t -> model:Memmodel.t -> t -> witness option
(** [check] with the refutation reason dropped. *)

val check_witness :
  model:Memmodel.t -> t -> int array -> (witness, string) result
(** Validate a proposed total order against every axiom the checker
    enforces, independently of how it was produced; [Ok] returns the
    witness with its per-location coherence order read off.  This is
    the replay step for consistency verdicts: SAT-produced orders are
    re-validated here before being reported. *)

val cnf_fragment :
  model:Memmodel.t -> t -> Cnf.t * (int -> int -> Cnf.literal)
(** The SAT-tier hook: a formula whose models are exactly the
    consistent linearizations, and the literal map ([lit a b] is true
    iff [a] is ordered before [b]).  One order variable per unordered
    event pair, O(n³) transitivity triples, unit clauses for the
    saturated base order, one clause per (rf edge, other write)
    instance of the reads-from axiom. *)
