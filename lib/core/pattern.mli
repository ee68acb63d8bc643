(** Relational-pattern signatures.

    The paper (Sections 1, 2.5) argues for a vocabulary in which the
    {e relational pattern} of a query — how it composes its inputs — can be
    compared across languages: how many times each base relation is
    referenced, how scopes nest, whether aggregation follows the
    "from the inside out" (FIO) or "from the outside in" (FOI) pattern, and
    so on. This module extracts such signatures from ARC queries.

    The FIO/FOI distinction is operationalized by correlation: a grouping
    scope computed inside a nested collection that {e references range
    variables of an enclosing scope} is FOI (the grouping context is fixed
    outside and passed in, as in Klug, Hella et al., and Soufflé, Fig 5);
    any other grouping scope is FIO (the grouped attributes flow from the
    inside out, as in SQL's GROUP BY and extended RA, Fig 4). *)

open Ast

type agg_style = FIO | FOI

type t = {
  rel_refs : (rel_name * int) list;
      (** How many times each base/defined/external relation is referenced,
          sorted by name. Distinguishes e.g. the Hella pattern (Fig 7:
          R×3, S×3) from ARC's single-scope pattern (Fig 6: R×1, S×1). *)
  n_scopes : int;
  n_grouping_scopes : int;
  n_nested_collections : int;
  n_negations : int;
  n_disjuncts : int;
  max_scope_depth : int;
  n_assignments : int;
  n_comparisons : int;
  n_aggregations : int;
  agg_styles : agg_style list;  (** One entry per grouping scope, preorder. *)
  has_outer_join : bool;
  skeleton : string;  (** {!Canon.skeleton} of the query. *)
}

val of_query : query -> t
val of_collection : collection -> t

val equal : t -> t -> bool
(** Full signature equality (includes the skeleton): pattern-identical. *)

val agg_style_to_string : agg_style -> string
val to_string : t -> string
