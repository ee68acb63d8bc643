(** Pattern-level rewrites of ARC queries.

    The paper discusses several rewrites whose validity depends on
    conventions: unnesting is sound only under set semantics (Section 2.7),
    while connective normalizations are sound everywhere. Each rewrite here
    is a pure AST transformation; the test suite checks the claimed
    equivalences (and the claimed {e in}equivalences under bag semantics)
    with randomized databases. *)

open Ast

val push_negation : formula -> formula
(** De Morgan + double-negation normalization: [¬¬φ → φ],
    [¬(φ ∨ ψ) → ¬φ ∧ ¬ψ], [¬(φ ∧ ψ) → ¬φ ∨ ¬ψ], everywhere in the formula,
    nested collections included. Convention-independent under two-valued
    {e and} three-valued logic (Kleene De Morgan). *)

val merge_nested_exists : query -> query
(** Unnesting (Section 2.7): a scope whose body is directly a plain inner
    existential scope is merged with it —
    [∃r ∈ R[∃s ∈ S[φ]]  →  ∃r ∈ R, s ∈ S[φ]] — provided neither scope has a
    grouping operator or a join annotation and binding names do not clash.
    Sound under set semantics; changes multiplicities under bag semantics
    (exactly the paper's example). *)

val inline_definitions : program -> program
(** Replaces bindings to {e non-recursive, safe} definitions by nested
    collections, eliminating those definitions (a view-unfolding rewrite).
    Recursive or abstract definitions are kept. Sound under set semantics
    (intensional relations are sets: the fixpoint deduplicates). *)

val dedup_wrap : fresh:(string -> string) -> collection -> collection
(** The Section 2.7 DISTINCT encoding: wraps a collection in a grouping on
    all of its head attributes. [fresh] supplies new head/variable names. *)
