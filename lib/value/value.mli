(** Atomic values of the relational model, including SQL-style NULL.

    ARC is agnostic about the domain of values; this module fixes a concrete
    domain rich enough for every example in the paper (integers, floats,
    strings, booleans) plus [Null], whose comparison behavior is governed by
    the active convention (see {!Conventions}). *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type ty = T_any | T_int | T_float | T_str | T_bool

val type_of : t -> ty
(** [type_of Null] is [T_any]. *)

val ty_name : ty -> string

val is_null : t -> bool

val equal : t -> t -> bool
(** Structural equality; [Null] equals [Null]. Used for grouping keys and
    set-semantics deduplication (SQL, too, treats NULLs as "not distinct"
    in GROUP BY/DISTINCT). For predicate evaluation use {!cmp3}. *)

val compare : t -> t -> int
(** Total order for deterministic output: [Null] sorts first, then values by
    type, numerics compared numerically across Int/Float. *)

val cmp3 : t -> t -> int option
(** Predicate-level comparison: [None] when either side is [Null] (yielding
    [Unknown] under three-valued logic), otherwise [Some c] with [c] as
    {!compare}. Comparing values of incompatible types raises
    [Type_error]. *)

exception Type_error of string

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** Arithmetic is null-strict: any [Null] operand yields [Null]. Division
    by zero (integer or float) yields [Null], SQL-style — never an error,
    never an infinity or NaN. *)

val modulo : t -> t -> t
(** Remainder ([mod] for ints, [Float.rem] for floats); modulo by zero
    yields [Null] like {!div}. *)

val neg : t -> t

val to_float : t -> float option
(** Numeric coercion used by aggregates such as [avg]. *)

val like : t -> string -> bool option
(** SQL [LIKE] with [%] and [_] wildcards; [None] when the value is [Null]. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** Literal syntax accepted by every frontend lexer: strings are
    single-quoted with embedded quotes doubled ([''']), floats print in a
    shortest form that reparses to the identical float (exponent notation
    when needed). *)

val canonical : t -> string
(** Serialization for hash keys: injective up to {!key_equal} (so [Int 1] and
    [Float 1.0] agree), and self-delimiting (tagged and length-prefixed or
    terminated), so concatenating canonical forms cannot collide the way
    concatenating {!to_string} forms can. Not meant for display. *)

val key_equal : t -> t -> bool
(** Hash-key equality: [key_equal a b] iff [canonical a = canonical b],
    computed without building either string. [Null] equals [Null];
    [Int i] equals [Float f] exactly when [f] is integral, [|f| <= 4e18]
    and [int_of_float f = i] (so [-0.0] equals [Int 0]). Unlike
    {!equal}, which compares Int/Float through [float_of_int], it never
    equates two values whose canonical forms differ. Whether a NULL key
    may match at all (three-valued logic) is the caller's decision. *)

val key_hash : t -> int
(** A hash consistent with {!key_equal}. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by values under {!key_equal}. *)

val int : int -> t
val str : string -> t
val float : float -> t
val bool : bool -> t
