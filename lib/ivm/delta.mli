(** Signed multisets of tuples — the change objects incremental view
    maintenance propagates.

    A delta maps each distinct tuple (by {!Arc_relation.Tuple.equal}, the
    tuple equality grouping/dedup use, so [Null] matches [Null]
    under both 2VL and 3VL and [Int 1] matches [Float 1.0]) to a signed
    multiplicity: positive = insertions, negative = deletions. Entries
    with multiplicity zero are dropped eagerly, so [is_empty] means "no
    net change". *)

type t

val create : unit -> t

val add : t -> Arc_relation.Tuple.t -> int -> unit
(** Accumulate [n] (possibly negative) occurrences of a tuple. *)

val of_list : (Arc_relation.Tuple.t * int) list -> t

val to_list : t -> (Arc_relation.Tuple.t * int) list
(** Non-zero entries, sorted by tuple for determinism. *)

val is_empty : t -> bool

val cardinality : t -> int
(** Sum of absolute multiplicities (total change volume). *)

val negate : t -> t
(** The inverse batch: applying [d] then [negate d] is a no-op. *)

val count : t -> Arc_relation.Tuple.t -> int

val positive : t -> (Arc_relation.Tuple.t * int) list
val negative : t -> (Arc_relation.Tuple.t * int) list
(** Insertion / deletion sides; [negative] multiplicities are reported
    as positive magnitudes. *)

val expand : (Arc_relation.Tuple.t * int) list -> Arc_relation.Tuple.t list
(** Multiset expansion: each tuple repeated [max 0 n] times. *)
