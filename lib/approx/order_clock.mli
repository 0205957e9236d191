(** Vector clocks over {e forced} orderings — the scalable sound-positive
    MHB device behind the auto engine's first tier.

    {!Vclock} is exact for the observed execution but unsafe as an MHB
    approximation: it trusts the synchronization pairing the run
    happened to exhibit.  This clock only propagates orderings that
    {e every} feasible schedule of the same events must exhibit:

    - program order (condition F2), and optionally the recorded
      shared-data dependences (condition F3 — include them for queries
      about the program's executions; exclude them for race queries,
      whose modified skeleton drops the candidate pair's edges);
    - forced synchronization edges read off supplier uniqueness: a
      semaphore starting at 0 whose {e only} V must precede every P on
      it, and an event variable starting false with exactly one Post
      and no Clear, whose Post must precede every Wait.

    Consequently [ordered t a b] ⇒ [a] precedes [b] in every feasible
    schedule — sound for MHB, for refuting could-have-been-concurrent,
    and (given a feasibility witness) for deciding could-happen-before
    in both directions.  The device is linear-time in events times
    processes (one flat int matrix, one id-order pass), which is what
    lets the race triage over a million-event trace stay in tier 1.

    [build] returns [None] when the device does not apply: event ids
    not topologically ordered by the enforced edges, a process whose
    events the edges do not totally order, or a clock matrix over the
    memory gate.  Callers treat [None] as every-pair-[Unknown]. *)

type t

val dense_pids : int array -> int * int array
(** [dense_pids pids] numbers the distinct values of [pids] (one per
    event) densely, in order of first appearance: it returns the number
    of processes and each event's process index.  Tables indexed by it
    are as wide as the process count, whatever the pid values. *)

val build :
  pids:int array ->
  kinds:Event.kind array ->
  po_preds:(int -> int list) ->
  ?extra_preds:(int -> int list) ->
  sem_init:int array ->
  sem_binary:bool array ->
  ev_init:bool array ->
  unit ->
  t option
(** Array-level constructor shared by the skeleton path and the
    columnar big-trace path.  [po_preds]/[extra_preds] give immediate
    predecessor ids per event; every edge must go forward in id
    order. *)

val of_skeleton : ?with_deps:bool -> Skeleton.t -> t option
(** [with_deps] (default [true]): include the recorded shared-data
    dependences as enforced edges. *)

val ordered : t -> int -> int -> bool
(** [ordered t a b]: [a] provably precedes [b] in every feasible
    schedule.  Irreflexive; [false] means unknown, not refuted. *)

val mhb_decider : t -> Approx.decider
(** The device under the uniform interface: [Proved] iff {!ordered}. *)
