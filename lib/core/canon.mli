(** Canonical forms of ARC queries.

    Semantic comparison of queries must not depend on "the idiosyncrasies of
    any particular query language" (paper, Section 1) — nor on incidental
    choices {e within} ARC: variable names, conjunct order, orientation of
    equality predicates, or redundant [And]/[Or]/[Not] nesting. This module
    normalizes those choices. Two queries with the same relational pattern
    and the same structure receive equal canonical forms; [Arc_intent] builds
    its similarity metrics on top. *)

open Ast

val simplify_formula : formula -> formula
(** Flattens nested [And]/[Or], removes [True] conjuncts, collapses
    single-element connectives and double negation, in a scope's own
    formula: it stops at nested collections, whose bodies the engines
    simplify when they evaluate or lower them. Pattern-preserving. *)

val simplify_query : query -> query
(** {!simplify_formula}'s rules applied to every formula of the query,
    nested collections included (through {!Ast.map_children}). Canonical
    forms, skeletons and {!Pattern} signatures read this form, so a nested
    [(a ∧ b) ∧ c] and [a ∧ b ∧ c] get one pattern. *)

val canonical_query : query -> query
(** Renames range variables to [v1, v2, …] (in deterministic traversal
    order), head names to [q1, q2, …], orients comparison predicates
    ([5 < r.A] becomes [r.A > 5]; equalities ordered lexicographically),
    sorts conjuncts and disjuncts structurally, and simplifies connectives
    ({!simplify_query}), nested collections included.
    Evaluation-equivalent by construction (conjunct order is irrelevant in
    ARC: "the order of shown predicates does not matter", Section 2.3). *)

val skeleton : query -> string
(** A compact structural fingerprint of the canonical form with variable
    {e and} head-attribute names erased (relation names kept): the
    "relational pattern" rendered as a string. Equal skeletons mean
    pattern-identical queries. *)
