(** Columnar view of huge traces — the streaming million-event path.

    A {!Trace.t} and its {!Execution.t} carry dense [n x n] relation
    matrices (temporal order, dependences), which is exactly right for
    the exact engines at tens-to-hundreds of events and exactly wrong
    at 10^6: the matrices alone would need gigabytes.  A [Bigtrace.t]
    keeps only what the tier-1 triage deciders need, all of it linear
    in the trace:

    - the events and their immediate program-order predecessors, in
      compressed rows;
    - per event, the two largest shared-data dependence predecessors
      ({!dep_pred_max_excluding}) — the prefix-enabledness certificate
      needs only the maximum outside the candidate pair, never the
      full (per-hot-variable quadratic) dependence lists;
    - the synchronization environment, for the forced-edge order clock,
      and the dense column of synchronization steps the replay
      certifier runs.

    Event ids are the observed schedule (as in every recorded trace).
    [read]/[save] speak the exact [eotrace 1] format of {!Trace_io}
    (same parser, same assembly checks, same diagnostics), streaming
    line by line;
    {!of_trace}/{!to_trace} convert losslessly at small sizes for the
    differential tests and for handing a small file to the exact
    engines. *)

type t = {
  events : Event.t array;
  po_off : int array;
      (** program-order rows: the immediate predecessors of event [e] are
          [po_src.(po_off.(e))] to [po_src.(po_off.(e + 1) - 1)] *)
  po_src : int array;
  dep_m1 : int array;
      (** largest dependence predecessor id per event, [-1] if none *)
  dep_m2 : int array;  (** second largest distinct, [-1] if none *)
  sync_ev : int array;
      (** the replay column: ids of the events whose synchronization
          changes replay state (every kind but computation, fork and
          join), ascending *)
  sync_op : int array;  (** their operations, packed one int each *)
  outcome : Trace.outcome;
  violations : int list;
  var_names : string array;
  sem_names : string array;
  ev_names : string array;
  sem_init : int array;
  sem_binary : bool array;
  ev_init : bool array;
  final_store : (string * int) list;
  process_names : (int * string) list;
}

val n_events : t -> int

val of_parts : Trace_io.parts -> t
(** The columns of a trace's contents (the generator path, and every
    reader's): predecessor rows in the order the edges are given,
    dependence maxima and the replay column.  Expects contents that
    {!Trace_io.read_parts} would accept. *)

val of_trace : Trace.t -> t
val to_trace : t -> Trace.t

val read : string -> t
(** Streaming reader for the [eotrace 1] format: {!Trace_io.read_parts},
    then the columns.  Accepts exactly the files {!Trace_io.load}
    accepts and raises [Failure] with the same messages otherwise. *)

val save : string -> t -> unit
(** Streaming writer; output is accepted by both {!read} and
    {!Trace_io.load} (and matches {!Trace_io.to_string} on converted
    traces up to program-order edge ordering). *)

val dep_pred_max_excluding : t -> event:int -> excluding:int -> int
(** The largest dependence predecessor of [event] other than
    [excluding] ([-1] if none) — the quantity the race triage compares
    against the candidate's earlier event to certify that both pair
    events were simultaneously enabled. *)

val po_preds : t -> int -> int list
(** Immediate program-order predecessors of an event: for a trace read
    from a file, in the order of their [po] lines. *)

val po_pred_max : t -> int -> int
(** Largest immediate program-order predecessor ([-1] if none). *)

val conflicting_pairs : t -> (int * int * int list) list
(** Race candidates: pairs of conflicting computation events of
    distinct processes, as [(lower id, higher id, conflict variables)]
    sorted by pair, each variable list ascending — the same list as
    [Race.conflicting_pairs].  One id-order pass checks each event
    against its variables' earlier touches, packs every conflict into
    an int key, and one integer sort groups them. *)

val observed_replays : t -> bool
(** Does the observed schedule itself replay (forward precedence plus a
    linear synchronization-state simulation over the replay column)?
    The feasibility witness every positive tier-1 answer rests on. *)

val certify_swap : t -> int -> int -> bool
(** Replays the observed schedule with the later pair event hoisted to
    run immediately {e before} the earlier one (the back-to-back
    both-orders race certificate), checking every synchronization
    enabledness step by step over the replay column (the steps it
    skips — computation, fork, join — change no state).  [true] means
    the reordered schedule completes — the replay certification for a
    streaming-path race verdict. *)
