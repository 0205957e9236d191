(** DIMACS CNF reading and writing, for feeding external instances to the
    reduction CLI. *)

val parse : string -> Cnf.t
(** Parses DIMACS CNF text: comment lines start with [c], the header line is
    [p cnf <vars> <clauses>], and clauses are 0-terminated literal lists that
    may span lines.  Fields are separated by any ASCII whitespace (tabs
    included), and a line starting with [%] is the conventional end-of-file
    marker — it and everything after it is ignored.  Malformed input —
    a bad header, a non-integer or out-of-range literal, an open clause,
    a clause count that disagrees with the header — raises [Failure]
    with a message naming the line where it can; no other exception
    escapes. *)

val parse_file : string -> Cnf.t
(** {!parse} on a file's contents.  @raise Sys_error when the file
    cannot be read. *)

val print : Format.formatter -> Cnf.t -> unit

val to_string : Cnf.t -> string
