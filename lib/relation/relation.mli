(** Relations: collections of tuples over a shared schema.

    The representation is always a bag: an array of rows, duplicates
    allowed. Whether a result is deduplicated is decided by the active
    {!Arc_value.Conventions.collection_semantics}, applied by callers via
    {!dedup}. This matches the paper's Section 2.7: the same query is
    {e interpreted} under set or bag semantics.

    Relations are persistent values: no operation changes a relation
    once it has been returned. Versions built by appending share one
    growable buffer, so {!cardinality}, {!is_empty}, {!take} and {!drop}
    are O(1), and {!union}, {!add}, {!insert} and the insertions of
    {!apply_delta} cost O(rows appended), amortized, when they append to
    the latest version built on its buffer. Appending to an older version
    copies it first. A fixpoint that keeps appending its delta to its
    accumulator ({!distinct}) thus pays for the delta, not for the
    accumulator. *)

type t

val make : ?name:string -> Schema.t -> Tuple.t list -> t
(** Raises [Invalid_argument] if a tuple's schema differs from the
    relation's (attribute names and order must match). *)

val of_array : ?name:string -> Schema.t -> Tuple.t array -> t
(** The rows of the array, which the relation takes over: callers must
    not mutate it. For rows built on [schema] itself: unlike {!make},
    their schemas are not checked. *)

val of_rows : ?name:string -> string list -> Arc_value.Value.t list list -> t
(** Convenience: schema from attribute names, rows as value lists. *)

val empty : ?name:string -> string list -> t

val name : t -> string option
val schema : t -> Schema.t
val cardinality : t -> int
val is_empty : t -> bool

val get : t -> int -> Tuple.t
(** [get r i] is the [i]-th row, [0 <= i < cardinality r]; raises
    [Invalid_argument] otherwise. *)

val iter : (Tuple.t -> unit) -> t -> unit

val take : int -> t -> t
(** The first [n] rows (all of them when [n >= cardinality]); O(1). *)

val drop : int -> t -> t
(** All rows but the first [n] (none when [n >= cardinality]); O(1). *)

val rename : string -> t -> t
(** The same rows under another relation name; O(1). *)

val tuples : t -> Tuple.t list
(** The rows as a fresh list, in order: O(cardinality). Scans use
    {!iter} or {!get}. *)

val dedup : t -> t
(** Set-semantics view: one representative per distinct tuple
    ({!Tuple.equal}), preserving first-occurrence order; the relation
    itself when its rows are distinct. *)

(** {1 Distinct accumulators}

    A growing set of rows that is its own relation: the rows live in a
    relation buffer, and an open-addressing table of their positions
    (hashed by {!Tuple.hash}, compared by {!Tuple.equal}, as {!dedup}
    does) is the only per-row structure beside them. Recursive fixpoints
    accumulate their closure in one. *)

type distinct

val distinct : ?name:string -> Schema.t -> distinct
(** An empty accumulator over [schema]. *)

val insert : distinct -> Tuple.t -> unit
(** Appends the row unless an equal row is there already: O(1),
    expected and amortized. Raises [Invalid_argument] if its schema
    differs from the accumulator's. *)

val contents : distinct -> t
(** The rows inserted so far, in insertion order: O(1). The relation
    keeps exactly these rows whatever is inserted later, and
    [drop (cardinality r) (contents d)], taken after more insertions,
    is the rows added since [r = contents d]. *)

val add : t -> Tuple.t -> t
(** Appends one row. Raises [Invalid_argument] if its schema differs from
    the relation's. *)

(** {1 Bag operations}

    Used by the engines' fixpoints and by SQL set operations; the ARC
    engines evaluate comprehensions directly and do not compile to
    relational algebra. *)

val select : (Tuple.t -> bool) -> t -> t
(** Calls the predicate once per row, in row order. *)

val union : t -> t -> t
(** Bag union (UNION ALL); apply {!dedup} for set union. The right
    operand's rows follow the left's, aligned to the left schema. *)

val minus : t -> t -> t
(** Bag difference (EXCEPT ALL): multiplicities subtract. *)

val intersect : t -> t -> t
(** Bag intersection: pointwise [min] of multiplicities. *)

(** {1 Signed deltas}

    A signed delta is a list of [(tuple, multiplicity)] pairs: positive
    multiplicities insert copies, negative ones delete occurrences matched
    by {!Tuple.equal} — the tuple equality {!dedup} uses, so
    [Null] matches [Null] (under both 2VL and 3VL, as in GROUP
    BY/DISTINCT) and [Int 1] matches [Float 1.0]. These are the atoms the
    incremental view maintenance layer ([Arc_ivm]) propagates. *)

val align_to : Schema.t -> Tuple.t -> Tuple.t
(** Reorder a tuple's cells to a schema over the same attribute names
    (identity when already aligned); raises [Unknown_attribute] when the
    attribute sets differ. *)

val apply_delta : t -> (Tuple.t * int) list -> t
(** Apply a signed delta: deletions filter existing rows (preserving
    order), insertions append. Raises [Invalid_argument] if a tuple's
    schema differs from the relation's or a deletion exceeds the present
    multiplicity — deltas are exact, never clamped, so
    [apply_delta (apply_delta r d) (inverse of d)] restores [r]. *)

val diff_signed : t -> t -> (Tuple.t * int) list
(** [diff_signed old new] is the signed delta turning [old] into [new]
    (bag-wise): [apply_delta old (diff_signed old new)] is bag-equal to
    [new]. Sorted by tuple for determinism; zero entries omitted. *)

val equal_set : t -> t -> bool
(** Equality under set semantics (same distinct tuples). *)

val equal_bag : t -> t -> bool
(** Equality under bag semantics (same multiplicities). *)

val sort : t -> t
(** Deterministic tuple order ({!Tuple.compare}, stable), for printing
    and golden tests. *)

val to_table : t -> string
(** ASCII table rendering. *)

val pp : Format.formatter -> t -> unit
