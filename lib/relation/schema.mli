(** Relation schemas in the named perspective (paper, Section 2.1).

    Following Codd's "totally associative addressing", attributes are
    accessed by name, never by position. A schema is an ordered list of
    distinct attribute names; the order is presentational only and does not
    affect semantics (tuple equality and joins are name-based). *)

type t

exception Duplicate_attribute of string
exception Unknown_attribute of string

val make : string list -> t
(** Raises {!Duplicate_attribute} if a name repeats. *)

val attrs : t -> string list
val arity : t -> int
(** Stored at {!make}: O(1). *)

val mem : t -> string -> bool

val index : t -> string -> int
(** Position of an attribute (internal storage only).
    Raises {!Unknown_attribute}. *)

val sorted_attrs : t -> string list
(** The attribute names in sorted order, precomputed at {!make} — the
    iteration order of name-based tuple equality/comparison. *)

val key_parts : t -> string array
(** Per sorted attribute, its length-prefixed header ["a<len>:<name>"]
    of the canonical tuple key (internal to {!Tuple.key}). *)

val sorted_ixs : t -> int array
(** Cell index of each sorted attribute (internal to {!Tuple.key},
    {!Tuple.equal}, {!Tuple.compare} and the {!Tuple.Tbl} hash). *)

val equal_names : t -> t -> bool
(** Same attribute sets, ignoring order. O(1) on a physically equal
    schema. *)

val equal : t -> t -> bool
(** Same attribute names in the same order. O(1) on a physically equal
    schema. *)

val project : t -> string list -> t
val pp : Format.formatter -> t -> unit
val to_string : t -> string
