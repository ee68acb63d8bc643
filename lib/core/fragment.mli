(** Language-fragment classification.

    The paper's comparisons live at the level of {e fragments}: TRC is the
    relationally complete first-order fragment (Section 2.1, Example 2);
    aggregation, grouping, join annotations, recursion, and arithmetic are
    ARC's strict extensions beyond it. This module names those fragments so
    claims like "ARC is a strict generalization of TRC" are checkable: every
    query in the TRC fragment is a valid ARC query, and the features record
    says exactly which extensions a query exercises. *)

open Ast

type features = {
  uses_aggregation : bool;
  uses_grouping : bool;
  uses_negation : bool;
  uses_disjunction : bool;
  uses_join_annotations : bool;  (** incl. outer joins, Section 2.11 *)
  uses_nested_collections : bool;
  uses_arithmetic : bool;
  uses_order_comparisons : bool;  (** [<], [≤], [>], [≥] *)
  uses_null_predicates : bool;
  uses_like : bool;
}

val features : query -> features
val features_program : program -> features

val is_trc : query -> bool
(** The membership-style TRC fragment of Section 2.1: quantifier scopes,
    equality/comparison predicates, negation, disjunction — but no grouping,
    aggregation, join annotations, nested collections, or arithmetic.
    (Nested collections are excluded because TRC ranges only over base
    relations.) *)

val is_conjunctive : query -> bool
(** Conjunctive fragment: a single scope chain with equality predicates
    only — no negation, disjunction, grouping, or order comparisons. *)

val name : query -> string
(** A human-readable fragment name:
    ["conjunctive"], ["TRC (relationally complete)"], or
    ["ARC + aggregation + outer joins"]-style listing of extensions. *)

val uses_recursion : program -> bool
(** Some definition (transitively) refers to itself. *)
