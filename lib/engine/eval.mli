(** The ARC evaluation engine.

    Executes the paper's {e conceptual evaluation strategy} (Section 2.3)
    literally: quantifier scopes enumerate their bindings as nested loops
    (later bindings — including correlated nested comprehensions — see
    earlier ones, giving lateral-join semantics, Section 2.4); join
    annotations drive outer joins with NULL padding (Section 2.11); a
    grouping operator partitions the enumerated scope rows and evaluates all
    aggregation predicates of the scope over each group (Section 2.5);
    definition environments are computed bottom-up with least-fixed-point
    semantics for recursive definitions (Section 2.9); external and abstract
    relations are resolved through access patterns (Section 2.13).

    Everything is interpreted under a {!Arc_value.Conventions.t} value —
    set vs bag, 2- vs 3-valued logic, and aggregate-on-empty are switches,
    not language features (Sections 2.6, 2.7).

    Evaluation runs under a resource governor ({!Arc_guard.Gov.t}): the
    engine probes it at every operator boundary (scan, scope, join, group,
    collection, fixpoint round), so wall-clock deadlines, row/binding/depth caps, and cooperative
    cancellation are honored within one operator step. The default guard is
    seed-equivalent — only the 100k fixpoint-iteration cap — and costs the
    hot paths nothing. *)

open Arc_core.Ast

exception Eval_error of Arc_guard.Error.t
(** Structured evaluation failure. The payload's [context] field carries the
    ["in collection %S"] chain (outermost first);
    {!Arc_guard.Error.to_string} renders exactly the historical string
    messages. It is {!Arc_guard.Error.Guard_error} rebound, so a budget
    trip is caught under either name. *)

val error_to_string : Arc_guard.Error.t -> string
(** Alias of {!Arc_guard.Error.to_string}. *)

type outcome =
  | Rows of Arc_relation.Relation.t
  | Truth of Arc_value.Bool3.t  (** For [Sentence] queries (Fig 9). *)

val run :
  ?conv:Arc_value.Conventions.t ->
  ?externals:Externals.impl list ->
  ?guard:Arc_guard.Gov.t ->
  db:Arc_relation.Database.t ->
  program ->
  outcome
(** Evaluates a program: computes safe (intensional) definitions bottom-up —
    recursive ones by least fixed point under set semantics, iterated
    naively (each round re-evaluates the whole definition), with a
    stratification check — registers unsafe (abstract) definitions for
    in-context membership resolution, then evaluates the main query.
    Defaults: [conv = Conventions.sql_set], [externals = Externals.standard].

    The reference evaluator is the semantic oracle and keeps no trace;
    per-operator actuals come from the plan engine
    ({!Arc_engine.Exec.spans_of_stats}).

    [guard] (default {!Arc_guard.Gov.default}, seed-equivalent) enforces
    the budget it was built with. Under [`Fail] a crossed limit raises
    {!Eval_error} with [Budget_exceeded]; under [`Truncate] evaluation
    completes with a partial result and [Arc_guard.Gov.report] describes
    what was clipped. Note a governor is single-use: it carries mutable
    counters and its deadline starts at {!Arc_guard.Gov.make}, so build a
    fresh one per [run].

    Raises {!Eval_error} on unstratifiable recursion, unresolvable
    external/abstract bindings, head attributes without assignment
    predicates, exhausted budgets, cancellation, or external-relation
    failure; the payload carries an ["in collection"] context chain naming
    the definition being evaluated. *)

val run_rows :
  ?conv:Arc_value.Conventions.t ->
  ?externals:Externals.impl list ->
  ?guard:Arc_guard.Gov.t ->
  db:Arc_relation.Database.t ->
  program ->
  Arc_relation.Relation.t
(** Like {!run} but expects a collection result; raises {!Eval_error} on a
    sentence. *)

val run_truth :
  ?conv:Arc_value.Conventions.t ->
  ?externals:Externals.impl list ->
  ?guard:Arc_guard.Gov.t ->
  db:Arc_relation.Database.t ->
  program ->
  Arc_value.Bool3.t

val eval_collection_standalone :
  ?conv:Arc_value.Conventions.t ->
  ?externals:Externals.impl list ->
  ?guard:Arc_guard.Gov.t ->
  db:Arc_relation.Database.t ->
  collection ->
  Arc_relation.Relation.t
(** Evaluates a single collection with no definition environment. *)

(** Hooks for the physical plan executor ({!Arc_engine.Exec}).

    The plan engine replaces the {e enumeration} strategy (nested loops →
    hash operators) but deliberately shares every {e semantic} primitive
    with this reference evaluator — term/predicate/formula evaluation,
    group-aware evaluation, governed scans and deferred external/abstract
    resolution — so the two engines can only diverge in what they
    enumerate, never in what a row means. Not part of the stable API. *)
module Internal : sig
  type ctx
  type benv = (var * Arc_relation.Tuple.t) list

  val prepare :
    ?conv:Arc_value.Conventions.t ->
    ?externals:Externals.impl list ->
    ?guard:Arc_guard.Gov.t ->
    db:Arc_relation.Database.t ->
    program ->
    ctx * definition list
  (** Validates safety, registers abstract definitions, and returns the
      context with an {e empty} IDB plus the safe definitions the caller
      must materialize (in dependency order). *)

  val conv : ctx -> Arc_value.Conventions.t
  val gov : ctx -> Arc_guard.Gov.t
  val db : ctx -> Arc_relation.Database.t
  val idb_set : ctx -> rel_name -> Arc_relation.Relation.t -> unit
  val idb_get : ctx -> rel_name -> Arc_relation.Relation.t option
  val idb_remove : ctx -> rel_name -> unit
  val eval_term : ctx -> benv -> term -> Arc_value.Value.t

  val eval_gterm :
    ctx -> rep:benv -> group:benv list -> scope_vars:var list -> term ->
    Arc_value.Value.t

  val eval_pred : ctx -> benv -> pred -> Arc_value.Bool3.t

  val eval_pred_values :
    ctx -> pred -> Arc_value.Value.t list -> Arc_value.Bool3.t

  val cmp_values :
    ctx -> cmp_op -> Arc_value.Value.t -> Arc_value.Value.t ->
    Arc_value.Bool3.t
  (** [eval_pred_values] of a comparison, without the value list. *)

  val eval_formula : ctx -> benv -> formula -> Arc_value.Bool3.t

  val eval_gformula :
    ctx -> rep:benv -> group:benv list -> scope_vars:var list -> formula ->
    Arc_value.Bool3.t

  val source_rows : ctx -> benv -> source -> Arc_relation.Relation.t
  (** Governed scan (ticks, charges bindings):
      the source's rows, truncated to the bindings the budget allows. *)

  val resolve_deferred :
    ctx -> benv -> scope -> benv list -> binding list -> benv list
  (** Resolves external/abstract bindings from seed equations found in the
      scope body (which must be the {e pre-extraction} body). *)

  val take : int -> 'a list -> 'a list
  (** Governed truncation helper. *)
end
