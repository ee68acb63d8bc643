(** Static analysis of ARC programs: scope validation, predicate-role
    classification, and safety (range-restriction) analysis.

    These checks realize the paper's "structurally constrained representation
    [that] can be validated (well-scoped variables, grouping legality,
    correlation shape)" (Section 4, NL2SQL answer). *)

open Ast

(** {1 Environment} *)

type env = {
  base_schemas : (rel_name * attr list) list;
      (** Known base-relation schemas. Bindings to names absent from every
          namespace are reported as {!Unknown_relation}. *)
  externals : External.decl list;
}

val env :
  ?schemas:(rel_name * attr list) list ->
  ?externals:External.decl list ->
  unit ->
  env
(** Defaults: no base schemas (attribute checks on base bindings are then
    skipped), {!External.standard} externals. *)

(** {1 Predicate roles (Section 2.1, 2.5)} *)

type role = {
  is_assignment : bool;
      (** One side is [H.a] for an enclosing collection head [H]: the
          predicate gives a head attribute its value. *)
  is_aggregation : bool;  (** The predicate contains an aggregate term. *)
}
(** The paper's taxonomy: an {e assignment predicate} ([Q.A = r.A]), a
    {e comparison predicate} ([r.B = s.B], [x.sm > 100]), and an
    {e aggregation predicate} (contains an aggregate), which can act as
    either — the distinction at the center of the count-bug diagnosis. *)

val classify : heads:rel_name list -> pred -> role

val assignment_of : heads:rel_name list -> pred -> ((var * attr) * term) option
(** [Some ((h, a), t)] when the predicate assigns term [t] to head attribute
    [h.a] (returns the head side normalized to the left). *)

(** {1 Join annotations (Fig 12)}

    The shared decomposition of a join-annotated scope, used by both the
    reference evaluator and the plan lowering so the two engines agree
    predicate-by-predicate on outer-join semantics. *)

val prepare_join_literals : scope -> scope * (var * Arc_value.Value.t) list
(** Rewrites literal leaves ([J_lit c]) into fresh ["_litN"] variables bound
    as singleton relations of schema [["val"]], redirecting one body
    comparison against each literal constant to that attribute. Returns the
    rewritten scope and the [(var, constant)] pairs. Identity when the scope
    has no annotation or no literal leaves. *)

val split_join_conditions :
  heads:rel_name list -> scope -> formula list * formula list
(** Partitions the body conjuncts of an annotated scope into (attachable ON
    conditions, residual WHERE conjuncts). Must be called on the
    post-[prepare_join_literals] scope. *)

val smallest_cover : join_tree -> var list -> join_tree option
(** The smallest annotation node covering all [vars]; [None] when even the
    root does not. Node identity is physical equality against the handed-in
    tree. *)

val node_join_preds :
  join_tree -> scope -> attached:formula list -> join_tree -> pred list
(** Of the [attached] conditions, those whose smallest cover is the given
    node (physical identity within [tree]). *)

(** {1 Validation} *)

type error =
  | Duplicate_binding of var
  | Duplicate_head_attr of rel_name * attr
  | Unbound_variable of var
  | Unknown_attribute of var * attr
  | Unknown_relation of rel_name
  | Aggregate_outside_grouping of string
      (** An aggregation predicate whose nearest enclosing scope has no
          grouping operator (Section 2.5: "the appearance of any aggregation
          predicate turns an existential scope into a grouping scope and
          requires a grouping operator"). *)
  | Nested_aggregate of string
  | Join_var_not_bound of var
  | Join_var_duplicated of var
  | Grouping_var_not_bound of var
  | Head_in_nested_collection of rel_name
  | Ungrouped_head_dependency of rel_name * attr
      (** In a grouping scope, a head attribute was assigned a non-aggregate
          term that is not a grouping key (SQL: "column must appear in the
          GROUP BY clause"). *)
  | Reserved_relation_name of rel_name
      (** A definition head, base binding, or supplied base schema uses a
          name in the engine's reserved namespace ([__delta__…] fixpoint
          deltas, [__ivm__…] maintenance state); such a relation would
          collide with engine-registered IDB entries. *)

val error_to_string : error -> string

val is_reserved_name : rel_name -> bool
(** True for names the engine reserves ([__delta__]/[__ivm__] prefixes). *)

val validate : ?env:env -> program -> (unit, error list) result
val validate_query : ?env:env -> query -> (unit, error list) result

(** {1 Safety (Section 2.13)} *)

type safety = Safe | Unsafe of string
(** [Safe]: the collection is range-restricted and denotes a finite relation
    over every finite instance (an {e intensional} relation, Fig 14).
    [Unsafe reason]: domain-dependent — an {e abstract} relation, usable
    only inside a safe surrounding query (Section 2.13.2). *)

val collection_safety : ?env:env -> defs:definition list -> collection -> safety

val program_safety : ?env:env -> program -> (rel_name * safety) list
(** Safety of each definition, in order. *)

(** {1 Misc} *)

val free_vars_query : query -> var list
(** Range variables referenced but not bound anywhere — nonempty indicates a
    correlation leak; always empty for valid top-level queries. *)
