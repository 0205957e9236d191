(** The auto engine's tier-1 devices, and the streaming race pipeline.

    This layer owns the approximation devices of [lib/approx] and wires
    them into the exact machinery as the first tier of the [auto]
    engine's triage ladder:

    - {!attach} installs a {!Session.oracle} on a session, so the
      session's per-pair primitives ([exists_before], [must_before],
      [exists_race], [feasible_exists]) answer from polynomial one-sided
      deciders whenever they can, escalating to reachability, SAT and
      bounded enumeration only for the undecided survivors;
    - {!race_oracle} is the same tier for the race layer, which decides
      candidate pairs on {e modified} skeletons (the pair's dependence
      edges dropped) that no session owns;
    - {!races_big} runs the tier-1 race analysis directly over a
      columnar {!Bigtrace.t} — the streaming million-event path, linear
      in the trace, every positive replay-certified.

    Soundness inventory (each device only ever answers in its sound
    direction; everything else is [None] = escalate):

    - the forced-edge order clock ({!Order_clock}): [ordered a b] holds
      in {e every} feasible schedule — proves MHB, refutes the existence
      of a schedule with [b] before [a], refutes races;
    - EGP guaranteed orderings ({!Egp.guaranteed_before}), same
      direction, consulted at small [n];
    - the observed schedule, replay-certified feasible: an actual member
      of [F(P)] — proves [exists_before] for every pair it orders,
      refutes [must_before] for every pair it anti-orders, and anchors
      the prefix-enabledness race certificate (both back-to-back orders
      of the pair replayed to completion). *)

val attach : Session.t -> unit
(** Installs the tier-1 oracle on the session (idempotent; no effect if
    one is already attached).  All devices are built lazily on first
    query, against the session's own skeleton. *)

val race_oracle : Skeleton.t -> Skeleton.t -> Session.oracle
(** [race_oracle sk] precomputes the per-execution devices from the
    session's skeleton [sk] (a po+sync-only order clock — sound for
    every dep-modified skeleton — and the replay-certified observed
    schedule); applied to a candidate pair's modified skeleton, it is
    that pair's tier 1: [o_race] answers [Some false] when the clock
    forces an order, [Some true] when the pair is prefix-enabled and
    both back-to-back orders replay on the modified skeleton, [None]
    otherwise.  It decides no other query. *)

(** {1 The streaming million-event race pipeline} *)

type stream_relation = S_mhb | S_chb
(** The two per-pair orderings the streaming path can answer:
    must-happen-before and could-happen-before. *)

type stream_answer = {
  q_rel : stream_relation;
  q_a : int;
  q_b : int;
  q_verdict : bool option;
      (** [None]: tier 1 cannot decide — surfaced, never guessed (the
          streaming path has no higher tier to escalate to) *)
}

type big_report = {
  events : int;
  candidates : int;  (** conflicting cross-process computation pairs *)
  truncated : bool;  (** budget hit — a partial answer *)
  observed_feasible : bool;  (** did the observed schedule replay? *)
  races : (int * int * int list) list;
      (** certified races, [(earlier id, later id, variables)], sorted *)
  refuted : int;  (** candidates refuted by the order clock *)
  certified : int;  (** candidates proved and replay-certified *)
  undecided : int;
      (** candidates tier 1 could not decide — surfaced, never dropped
          silently (the big path has no higher tier to escalate to) *)
  answers : stream_answer list;
      (** one answer per element of [queries], in request order *)
}

val races_big :
  ?stats:Counters.t ->
  ?budget:Budget.t ->
  ?jobs:int ->
  ?queries:(stream_relation * int * int) list ->
  Bigtrace.t ->
  big_report
(** All races over a columnar trace by tier-1 devices only: candidate
    scan, forced-edge clock refutation, prefix-enabledness proof,
    replay certification of both orders — every stage linear in the
    trace.  Decided candidates bump [triage_tier_hits_approx];
    undecided ones bump [triage_escalations].  Budget expiry stops the
    scan and marks the report truncated (a sound under-report, in the
    could-have direction).

    Under a relaxing memory model ({!Memmodel.current}, read once per
    call) only the model-enforced program-order edges feed the
    forced-order clock — the sound direction (fewer refutations,
    certification unaffected); under [sc] the path is the legacy one,
    bit for bit.

    [jobs] shards the candidate scan across worker domains in
    contiguous chunks merged in chunk order, so counter totals and the
    report are identical across job counts (modulo budget expiry, which
    is wall-clock-dependent in either mode).

    [queries] asks streaming per-pair relation questions answered by
    the same tier-1 devices (event ids are observed-schedule
    positions): must-before holds when the clock forces the order and
    fails when the replay-certified observed schedule anti-orders the
    pair; could-before symmetrically.  Each decided query bumps
    [triage_tier_hits_approx], each undecided one
    [triage_escalations]. *)
