(** Minimal JSON construction — this repo deliberately has no JSON
    dependency, so the machine-readable CLI/bench surface is built from
    these combinators.  Output is deterministic: fields print in the
    order given, floats with ["%.6f"] (["%.1f"] when integral).

    There is one writer behind every rendering: it renders straight into
    a buffer its domain reuses from call to call, writes ints with a
    digit loop and escapes strings and keys in place (['"'], ['\\'] and
    the control bytes below 0x20; every other byte is copied as is), so
    a document costs its bytes and one copy out. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, single-line rendering. *)

val to_line : t -> string
(** [to_string v ^ "\n"] in one rendering — a response line of the
    analysis server's wire protocol. *)

val to_string_pretty : t -> string
(** Two-space indented rendering with a trailing newline — the format
    the cram tests lock. *)
