(** The re-executable view of an observed program execution.

    A skeleton keeps, for every event of the observed execution, exactly the
    information needed to decide when the event may occur in an alternate
    schedule: its immediate program-order predecessors, its shared-data
    dependence predecessors (condition F3), and its synchronization
    operation.  The set of feasible program executions [F(P)] of Section 3.1
    is precisely the set of complete schedules of the skeleton: every
    interleaving of the same events that respects program order, obeys the
    synchronization semantics, and preserves every observed dependence. *)

type t = {
  execution : Execution.t;
  model : Memmodel.t;
      (** the memory model whose preserved program order [po_preds] holds *)
  n : int;  (** number of events *)
  po_preds : int list array;  (** immediate program-order predecessors *)
  po_succs : int list array;
  dep_preds : int list array;  (** shared-data dependence predecessors *)
  kinds : Event.kind array;
  sem_init : int array;
  sem_binary : bool array;
  ev_init : bool array;
}

val of_execution : Execution.t -> t
(** The skeleton under the domain's current memory model
    ({!Memmodel.current}), read once here: every engine that runs on the
    skeleton afterwards — on any domain — works under [model]. *)

val without_pair : t -> int -> int -> t
(** [without_pair sk e1 e2]: the same skeleton with the dependence edges
    between [e1] and [e2] dropped (both directions) — equal to
    [of_execution] on the execution without them, under [sk.model].  The
    race layer decides each candidate pair on one of these: the pair's
    own ordering is exactly what is in question. *)

val constraint_graph : t -> Digraph.t
(** Program-order and dependence edges as one digraph (synchronization
    constraints are {e not} included — they are not expressible as static
    edges).  Every feasible schedule is a linear extension of this graph;
    the converse fails exactly when synchronization matters. *)

val pp : Format.formatter -> t -> unit
