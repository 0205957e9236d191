(** Binary relations over a finite carrier [0 .. size-1], stored as one
    bitset of successors per element (an adjacency bit matrix).

    Used throughout the project for temporal orderings, dependence relations
    and the Table 1 ordering relations.  Mutating operations modify the
    relation in place; algebraic operations return fresh relations. *)

type t

val create : int -> t
(** [create n] is the empty relation on a carrier of size [n]. *)

val size : t -> int

val add : t -> int -> int -> unit
(** [add r a b] makes [a r b] hold. *)

val remove : t -> int -> int -> unit

val mem : t -> int -> int -> bool

val successors : t -> int -> Bitset.t
(** The set [{ b | a r b }].  The returned bitset is the internal row: treat
    it as read-only. *)

val of_pairs : int -> (int * int) list -> t

val to_pairs : t -> (int * int) list
(** All pairs in lexicographic order. *)

val pair_count : t -> int

val copy : t -> t

val equal : t -> t -> bool

val subset : t -> t -> bool
(** [subset r1 r2] iff every pair of [r1] is in [r2]. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val union_into : t -> t -> unit
(** [union_into dst src] adds every pair of [src] to [dst] in place (the
    deterministic merge step for per-worker relation matrices). *)

val pack : t -> int array
(** The whole bit matrix as one flat word array (rows concatenated).  Two
    relations of equal size are equal iff their packings are equal —
    a compact hashable encoding for class counting. *)

val transpose : t -> t
(** Inverse relation. *)

val complement : t -> t
(** The pairs [(a, b)], [a <> b], with [not (a r b)]: the complement
    off the diagonal, a row at a time. *)

val irreflexive : t -> t
(** [r] without its diagonal pairs. *)

val is_irreflexive : t -> bool

val is_transitive : t -> bool

val is_antisymmetric : t -> bool
(** No distinct [a], [b] with both [a r b] and [b r a]. *)

val is_strict_partial_order : t -> bool
(** Irreflexive, transitive (hence antisymmetric on finite carriers). *)

val is_interval_order : t -> bool
(** Is the strict partial order an interval order — realizable by real
    intervals with [a < b] iff [a]'s interval ends before [b]'s begins?
    By Fishburn's theorem this holds iff the order contains no "2+2": four
    elements with [a < b], [c < d], [a ≮ d], [c ≮ b].  The temporal order
    of any real execution is an interval order (events occupy time
    intervals), which is what lets the model reason about overlap.
    Requires a strict partial order ([Invalid_argument] otherwise). *)

val transitive_closure : t -> t
(** Warshall's algorithm on bit rows: O(n^2 * n/wordsize). *)

val transitive_closure_in_place : t -> unit

val transitive_reduction : t -> t
(** Minimal relation with the same transitive closure.  The input must be a
    DAG (raises [Invalid_argument] on cyclic input). *)

val reflexive_closure_in_place : t -> unit

val is_acyclic : t -> bool
(** No directed cycle (self-loops count as cycles). *)

val comparable : t -> int -> int -> bool
(** In a closed order: [mem r a b || mem r b a]. *)

val iter : (int -> int -> unit) -> t -> unit

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

val pp : Format.formatter -> t -> unit
