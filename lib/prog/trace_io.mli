(** Plain-text serialization of traces.

    Lets an observed execution be recorded once and re-analysed later (or
    shipped in a bug report) without re-running the program.  The format is
    line-based and versioned:

    {v
    eotrace 1
    outcome completed
    vars x y
    sems s            # names; binary semaphores marked with a trailing *
    events e          # event-variable names
    sem_init 0
    ev_init 0
    process 0 main
    event 0 0 0 computation "x := 1" reads 1 writes 0
    event 1 0 1 sem_v 0 "V(s)" reads writes
    po 0 1
    final x 1
    v}

    Unknown directives are rejected, not skipped: the format is a contract,
    not a suggestion. *)

val to_string : Trace.t -> string

val of_string : string -> Trace.t
(** Raises [Failure] with a line-number message on a malformed line,
    and without one when the lines are well formed but do not make a
    trace (see {!read_parts}). *)

val save : string -> Trace.t -> unit
(** [save path trace] writes the trace to a file, through a fixed-size
    buffer. *)

val load : string -> Trace.t
(** Streams the file through a reused buffer (peak memory: the
    accumulated trace plus the longest line, never the whole file as
    one string), with the exact same error/line-number contract as
    {!of_string}. *)

(** {1 The line grammar}

    One parser reads every line of every reader ({!of_string},
    {!load}, {!read_parts} and so [Bigtrace.read]), so they accept
    exactly the same files with the same diagnostics. *)

type directive =
  | D_blank  (** empty or comment-only line *)
  | D_header  (** [eotrace 1] *)
  | D_outcome of Trace.outcome
  | D_vars of string array
  | D_sems of string array * bool array  (** names, binary flags *)
  | D_events of string array  (** event-variable names *)
  | D_sem_init of int array
  | D_ev_init of bool array
  | D_process of int * string
  | D_event of Event.t
  | D_po of int * int
  | D_violation of int
  | D_final of string * int

val parse_line : lineno:int -> string -> directive
(** Parses one raw line in place: a line without double quotes loses
    everything from its first [#], the rest is trimmed and split on
    spaces, and a token opening with a double quote runs to the
    matching unescaped quote and stands for its decoded contents.
    Integers, keywords and labels are read straight from the line.
    Raises [Failure] with a ["line %d: ..."] message on malformed input
    — the shared diagnostic contract. *)

(** {1 Trace contents} *)

type parts = {
  events : Event.t array;  (** slot [i] holds the event with id [i] *)
  po_src : int array;
      (** program-order edges [po_src.(k) -> po_dst.(k)]: read in file
          order, written in array order *)
  po_dst : int array;
  outcome : Trace.outcome;
  violations : int list;
  var_names : string array;
  sem_names : string array;
  sem_binary : bool array;
  ev_names : string array;
  sem_init : int array;
  ev_init : bool array;
  final_store : (string * int) list;
  process_names : (int * string) list;
}
(** A whole file's contents.  Both readers of the format assemble and
    check one ({!read_parts}, behind {!load} and [Bigtrace.read]), and
    the one writer prints one ({!save_parts}, behind {!save},
    {!to_string} and [Bigtrace.save]). *)

val read_parts : string -> parts
(** Streams the file line by line through {!parse_line}, puts each
    event in the slot its id names, and checks what the analyses index
    by: ids fill [0, n) exactly once, every program-order edge joins two
    events, [sem_init] and [ev_init] have one value per declared
    semaphore and event variable, and every synchronization operand and
    shared variable an event names is declared.  Raises [Failure] on
    any violation, with the same messages as {!of_string}. *)

val parts_of_trace : Trace.t -> parts
(** Program-order edges in source-major order. *)

val trace_of_parts : parts -> Trace.t

val save_parts : string -> parts -> unit
(** Writes the file through a fixed-size buffer, program-order edges in
    array order: at any size, memory is the contents plus 64 KiB. *)
