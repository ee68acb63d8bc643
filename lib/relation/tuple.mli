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

val concat : t -> t -> t
(** Schema union; raises {!Schema.Duplicate_attribute} on overlap. *)

val equal : t -> t -> bool
(** Name-based: equal iff same attribute set and each attribute maps to an
    equal value ([Null] = [Null], per grouping/dedup semantics). *)

val compare : t -> t -> int
(** Deterministic total order over tuples of the same schema. *)

val key : t -> string
(** Canonical string key (sorted by attribute name, length-prefixed
    {!Arc_value.Value.canonical} cells) for hashing/grouping. Injective up
    to {!equal}: two tuples share a key iff they are [equal]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
