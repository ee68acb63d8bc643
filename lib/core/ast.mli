(** Abstract syntax of Abstract Relational Calculus (ARC).

    ARC (paper, Section 2) is a strict generalization of Tuple Relational
    Calculus in a collection framework. A query is a {!collection}
    [{ Q(A,…) | body }] whose body is a {!formula}; range variables are
    introduced only by quantifier {!scope}s ("strict scoping", Section 2.1);
    head attributes receive values only through {e assignment predicates}
    ([Q.A = r.A]); aggregation requires a grouping operator γ on the scope
    (Section 2.5); outer joins are expressed by join annotations on the
    binding list (Section 2.11); recursion is expressed through definition
    environments with least-fixed-point semantics (Section 2.9).

    This module defines only the tree; classification of predicates
    (assignment vs comparison vs aggregation) is {e derived} by
    {!Analysis}, not declared, mirroring the paper's position that these
    roles are properties of the relational pattern. *)

type var = string
(** Range-variable name ([r] in [∃r ∈ R]), or a collection-head name. *)

type attr = string
type rel_name = string

type cmp_op = Eq | Neq | Lt | Leq | Gt | Geq

type scalar_op = Add | Sub | Mul | Div | Mod | Neg

type term =
  | Const of Arc_value.Value.t
  | Attr of var * attr  (** [r.A]; [var] may also be a head name ([Q.A]). *)
  | Scalar of scalar_op * term list
  | Agg of Arc_value.Aggregate.kind * term
      (** Aggregate over the grouping scope in which the containing
          predicate appears, e.g. [sum(r.B)] or [sum(a.val * b.val)]. *)

type pred =
  | Cmp of cmp_op * term * term
  | Is_null of term
  | Not_null of term
  | Like of term * string

(** Join-annotation trees (Section 2.11). [J_inner] is k-ary; [J_left] and
    [J_full] are binary; [J_lit c] is the singleton literal leaf of Fig 12
    ([inner(11, s)] is a cross join with the virtual unary table {c}). *)
type join_tree =
  | J_var of var
  | J_lit of Arc_value.Value.t
  | J_inner of join_tree list
  | J_left of join_tree * join_tree
  | J_full of join_tree * join_tree

type grouping = (var * attr) list
(** Grouping keys; [[]] is γ∅ ("group by true"). *)

type source =
  | Base of rel_name
      (** Base relation, defined relation (intensional/abstract), or
          external relation — resolved by name at evaluation time,
          uniformly, per Section 2.13. *)
  | Nested of collection  (** Correlated (lateral) nested comprehension. *)

and binding = { var : var; source : source }

and scope = {
  bindings : binding list;
  grouping : grouping option;
      (** [Some keys] turns the existential scope into a grouping scope. *)
  join : join_tree option;
      (** [None] ≡ [inner(all bindings)] (Section 2.11). *)
  body : formula;
}

and formula =
  | True
  | Pred of pred
  | And of formula list
  | Or of formula list
  | Not of formula
  | Exists of scope

and head = { head_name : rel_name; head_attrs : attr list }

and collection = { head : head; body : formula }

type query =
  | Coll of collection
  | Sentence of formula
      (** Boolean queries / integrity constraints (Section 2.5, Fig 9). *)

type definition = { def_name : rel_name; def_body : collection }
(** A defined relation (Fig 14): intensional if safe, abstract otherwise
    (the distinction is computed by {!Analysis.safety}). *)

type program = { defs : definition list; main : query }

val program : ?defs:definition list -> query -> program

(** {1 The node view}

    The one definition of what a formula contains. A node is a formula or
    a collection; its children are, in order:
    - [True], [Pred _]: none;
    - [And fs], [Or fs]: the operands, in order;
    - [Not f]: [f];
    - [Exists s]: the nested collections of [s]'s bindings, in binding
      order ([Base] bindings contribute none), then [s]'s body;
    - a collection: its body.

    Canonical forms, skeletons, relational patterns, fragment features,
    negation normalization and unnesting descend through this view, so
    they reach nested collections by construction. Walks that track
    scoping (free variables, renaming, validation) or evaluate keep their
    own match. *)

type node = F of formula | C of collection

val children : node -> node list

val map_children : (node -> node) -> node -> node
(** Rebuilds a node with the function applied to each child, left to
    right; the function must return a node of the kind it was given. A
    node whose children all come back physically unchanged is returned as
    is. *)

val fold : ('a -> node -> 'a) -> 'a -> node -> 'a
(** Preorder: a node before its children, children in {!children}'s
    order. *)

val to_formula : node -> formula
(** [Invalid_argument] on a collection. *)

val query_node : query -> node
(** A collection query's collection, or a sentence's formula. *)

val map_query : (node -> node) -> query -> query
(** Applies a node rewrite to a query's root node. *)

(** {1 Structural equality} (used by tests and canonical-form comparison) *)

val equal_term : term -> term -> bool
val equal_pred : pred -> pred -> bool
val equal_formula : formula -> formula -> bool
val equal_collection : collection -> collection -> bool
val equal_query : query -> query -> bool
val equal_program : program -> program -> bool

(** {1 Traversal helpers} *)

val term_vars : term -> (var * attr) list
(** All attribute references in a term, in occurrence order. *)

val pred_terms : pred -> term list

val term_has_agg : term -> bool
val pred_has_agg : pred -> bool

val formula_has_agg : formula -> bool
(** An aggregation predicate at the current scope level — aggregates inside
    a deeper quantifier belong to that scope ([Exists _] is [false]). *)

val conjuncts : formula -> formula list
(** Flattens nested [And]s; [True] yields []. *)

val disjuncts : formula -> formula list
(** Flattens nested [Or]s. *)

val join_tree_vars : join_tree -> var list

val cmp_op_to_string : cmp_op -> string
val cmp_op_flip : cmp_op -> cmp_op
(** [a op b] ≡ [b (flip op) a]. *)
