(** Tuples over a {!Schema}, with name-based access. *)

type t

val make : Schema.t -> Arc_value.Value.t array -> t
(** Raises [Invalid_argument] if the array length differs from the schema
    arity. The array is not copied; callers must not mutate it. *)

val of_alist : (string * Arc_value.Value.t) list -> t
(** Builds a schema from the association-list order. *)

val schema : t -> Schema.t
val get : t -> string -> Arc_value.Value.t

val cell : t -> int -> Arc_value.Value.t
(** [cell t i] is the value at position [i] = [Schema.index (schema t) a]
    of attribute [a]: for scans that resolve an attribute once and read
    it from many tuples of the same schema. *)

val values : t -> Arc_value.Value.t list

val project : t -> string list -> t
val rename_schema : t -> Schema.t -> t

val equal : t -> t -> bool
(** Name-based: equal iff same attribute set and each attribute maps to a
    {!Arc_value.Value.key_equal} value ([Null] = [Null], per
    grouping/dedup semantics; [Int 1] = [Float 1.0]). The equality of
    {!Tbl} and of {!key}. *)

val compare : t -> t -> int
(** Deterministic total order: by sorted attribute names, then cell by
    cell in sorted-attribute order. Tuples over the same attribute set
    compare positionally, without name lookups. *)

val hash : t -> int
(** A non-negative hash that agrees with {!equal}: it walks the cells in
    sorted-attribute order, so attribute order does not matter. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by whole tuples under {!equal} and {!hash}. *)

module Key_tbl : Hashtbl.S with type key = Arc_value.Value.t array
(** Hash tables keyed by value arrays, compared cell by cell with
    {!Arc_value.Value.key_equal}: composite join and grouping keys. *)

val key : t -> string
(** Canonical string key (sorted by attribute name, length-prefixed
    {!Arc_value.Value.canonical} cells). Injective up to {!equal}: two
    tuples share a key iff they are [equal]. Built on every call; for
    the oracles (the SQL evaluator, bag comparisons in tests), not for
    hashing in the engine (use {!Tbl}). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
