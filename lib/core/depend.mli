(** Relation-dependency analysis of definition environments (Section 2.9).

    Shared by the reference evaluator and the plan compiler so that both
    stratify a program identically: the strongly connected components of
    the definition dependency graph, dependencies-first, with each edge
    flagged when it crosses a nonmonotone position (negation, or a grouping
    scope that actually aggregates). *)

open Ast

val formula_deps :
  neg:bool -> grouped:bool -> (rel_name * bool) list -> formula ->
  (rel_name * bool) list
(** Accumulates [(relation, nonmonotone)] dependencies of a formula. *)

val collection_deps : collection -> (rel_name * bool) list
val def_deps : definition -> (rel_name * bool) list

val refs : formula -> rel_name list
(** The relations a formula reads, nested collections included, once per
    reference: the names of {!formula_deps}. *)

val sccs :
  definition list ->
  rel_name list list * (rel_name * (rel_name * bool) list) list
(** [(components, adjacency)] — components in dependencies-first order;
    the adjacency keeps only edges between the given definitions. *)

val is_recursive :
  (rel_name * (rel_name * bool) list) list -> rel_name list -> bool
(** A component is recursive when it has >1 member or a self-edge. *)

val recursive_defs : definition list -> rel_name list
(** The definitions that (transitively) refer to themselves: the members
    of the recursive components of {!sccs}. *)
