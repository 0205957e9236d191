(** Independent feasibility checker: replays a candidate schedule against a
    skeleton and verifies conditions F1–F3 of Section 3.1.

    This module deliberately shares no search machinery with
    {!Enumerate} — it is the oracle the property tests use to validate the
    enumerator. *)

type verdict =
  | Feasible
  | Not_a_permutation
  | Program_order_violated of { event : int; missing_pred : int }
  | Dependence_violated of { event : int; missing_pred : int }
  | Sync_blocked of { event : int }
      (** a [P] found the semaphore at zero, or a [Wait] found the event
          variable clear, at its scheduled position *)

val check : Skeleton.t -> int array -> verdict
(** [check sk schedule] replays the schedule.  [Feasible] iff the schedule
    is a permutation of all events that respects program order, preserves
    every observed shared-data dependence (F3), and never schedules a
    blocked synchronization operation. *)

val is_feasible : Skeleton.t -> int array -> bool

exception Not_replayable of string
(** The message names the first step of the schedule that is not
    enabled, and why. *)

val require : Skeleton.t -> int array -> unit
(** [require sk schedule] returns when the schedule replays and raises
    {!Not_replayable} otherwise.  For answers read off a {e recorded}
    schedule (apparent and first races, the observed width and
    parallelism profile): a trace file may record a schedule its own
    synchronization forbids, and that is an input error, not a crash. *)

val pp_verdict : Format.formatter -> verdict -> unit
