(** Vector clocks over one observed execution.

    The classic polynomial-time device: each event carries one counter per
    process, and [hb a b] decides in O(1) whether [a] happened before [b]
    {e in the observed execution} — that is, under the program order plus
    the synchronization pairings the run actually exhibited.

    This is the modern race-detector (TSan-style) ordering.  With respect to
    the paper's relations it is exact for the {e observed} class but unsafe
    as an approximation of MHB: another feasible execution may pair the
    semaphore operations differently (Section 4's criticism of
    Helmbold–McDowell–Wang's first phase).  The test suite exhibits the
    witness. *)

type t

val compute : Skeleton.t -> int array -> t
(** [compute sk schedule] assigns clocks along a feasible schedule.  The
    synchronization pairing is read off the schedule exactly as in
    {!Pinned.sync_edges}. *)

val observed : Skeleton.t -> t
(** Clocks for the observed execution of the skeleton: the schedule is
    recovered from the (total) temporal order and must replay.  Raises
    [Invalid_argument] when the execution's temporal order is not total,
    and {!Replay.Not_replayable} when the recorded schedule does not
    replay. *)

val of_execution : Execution.t -> t
(** {!observed} on the execution's skeleton. *)

val clock : t -> int -> int array
(** The vector clock of an event, one component per process, numbered
    as {!Order_clock.dense_pids} does (in order of each process's first
    event). *)

val hb : t -> int -> int -> bool
(** [hb t a b]: did [a] happen before [b] in the observed execution?
    Irreflexive. *)

val concurrent : t -> int -> int -> bool
(** Neither [hb a b] nor [hb b a]. *)

val hb_rel : t -> Rel.t
(** The whole happened-before relation as a matrix (for tests: it must equal
    the transitive closure of program order plus the schedule's
    synchronization edges). *)

val chb_decider : t -> Approx.decider
(** The device under the uniform interface, in the one direction the
    clock is sound for: [hb a b] under clocks computed along a feasible
    schedule ⇒ that schedule runs [a] before [b] ⇒ could-happen-before
    holds ([Proved]).  Never refutes — unordered-by-VC says nothing
    about other feasible executions (the unsafe direction the module
    documentation warns about). *)
