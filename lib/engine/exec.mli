(** Physical plan executor: runs the {!Arc_plan} IR with hash-based join,
    semi/anti-join, aggregation and deduplication operators. Every
    collection lowers to a plan, and a plan compiles once into runners over
    positional rows ({!Row}): terms, predicates and keys read fixed (slot,
    column) positions. Per-row semantics (residual formulas, governed
    scans, deferred resolution, by-name fallbacks and error messages) are
    shared with {!Eval} via its internals, so the two engines can only
    differ in what they enumerate — which is exactly what the differential
    tests check. *)

open Arc_core.Ast

val compile :
  ?conv:Arc_value.Conventions.t ->
  ?externals:Externals.impl list ->
  ?guard:Arc_guard.Gov.t ->
  db:Arc_relation.Database.t ->
  program ->
  Eval.Internal.ctx * Arc_plan.Ir.program_plan * Arc_plan.Ir.program_plan
  * (string * bool) list
(** [compile ~db prog] validates and lowers [prog], returning the prepared
    evaluation context, the raw lowered plan, the optimized plan, and the
    rewrite report (pass name, whether it changed the plan). A scope the
    lowering rejects (a join annotation naming an unbound variable) raises
    {!Eval.Eval_error} with the reference evaluator's message.

    The report starts with the two AST-level rewrites, [magic-sets] and
    [decorrelate-aggregates] (the lowering applies
    {!Arc_plan.Decorrelate} to every collection), then lists the plan
    passes of {!Arc_plan.Opt.optimize}. *)

val decorrelation :
  ?conv:Arc_value.Conventions.t ->
  ?externals:Externals.impl list ->
  db:Arc_relation.Database.t ->
  program ->
  program * Arc_plan.Decorrelate.site list
(** The program as [compile] lowers it after the count-bug-correct
    unnesting of correlated γ∅ aggregates, with every correlated γ∅ site:
    which were unnested and why the others keep their lateral. This is
    what [arc explain] prints under [-- decorrelated query --]. *)

val exec_program :
  ?stats:Arc_plan.Ir.stats ->
  Eval.Internal.ctx ->
  Arc_plan.Ir.program_plan ->
  Eval.outcome
(** Execute a compiled plan: materializes definition strata into the
    context's IDB (the indexed fixpoint for recursive strata), then runs
    the main plan. Raises {!Eval.Eval_error} like the
    reference evaluator.

    Operators run block-at-a-time: they work on row arrays with amortized
    governor probes, typed hash keys ({!Arc_relation.Tuple.Key_tbl}
    over the key terms' values), and constant-time group appends.

    A collection that only renames one relation (one disjunct projecting
    a filter-free scan attribute for attribute, in the head's order, of
    a relation with exactly the head's attributes:
    {!Arc_plan.Ir.identity_rename}) returns that relation's rows under
    its own name in O(1), charged as its scan and head would be, with no
    head dedup: under Set conventions they are a set already.

    A recursive stratum runs one fixpoint loop: a seed round evaluates
    every definition whole, then each round runs the stratum's rules.
    Each definition accumulates its rows in a
    {!Arc_relation.Relation.distinct}, whose open-addressing index of row
    positions is the only per-row structure beside the rows: it replaces
    per-round dedup/diff, a new row is appended behind the newest version
    of the accumulated relation in place, and the round's delta is the
    slice the round filled ({!Arc_relation.Relation.drop}). The rules depend
    on the stratum. One that passes {!Arc_plan.Ir.seminaive_eligible}
    runs one delta rule per component-scan occurrence with persistent
    caches (hash-join build tables and component-free subtree results
    survive across rounds), so a round costs O(delta), not O(closure);
    its trace span is [fixpoint:seminaive]. One that hides a component
    reference in a formula re-runs, every round and uncached, each of its
    disjuncts that reads a component relation; a disjunct that reads none
    runs only in the seed. Its span is [fixpoint:naive].

    When [stats] is given, every operator additionally records per-node
    actuals (invocations, rows emitted, inclusive wall-clock, hash
    build/probe/match counts, fixpoint iterations, delta sizes,
    per-round wall-clock and the fixpoint's own time) into it, keyed by the stable node ids of
    {!Arc_plan.Ir.program_ids}: preorder positions under
    {!Arc_plan.Ir.children}, the one definition of child order. These actuals are the plan engine's only
    instrumentation: [arc analyze] renders them as the annotated plan
    tree ({!Arc_plan.Explain.analyze_to_string}, [-f pretty]), as spans
    ({!spans_of_stats}, [-f jsonl] and [-f chrome]) and as metrics
    ({!export_stats}, [--metrics-out]).

    A recursive head's inclusive time covers its whole fixpoint, and its
    [a_fix_ns] is the part spent outside every plan node: index probes
    and appends of the accumulated relation, and round bookkeeping. So
    the head's exclusive time is the fixpoint's own work, not 0. A head
    that ran as an identity rename has [a_renamed] set, and its disjunct
    and scan record nothing. *)

val export_stats :
  Arc_obs.Metrics.t ->
  cenv:Arc_plan.Card.env ->
  Arc_plan.Ir.program_plan ->
  Arc_plan.Ir.stats ->
  unit
(** Aggregate a run's per-node actuals into operator-level metrics
    series ([arc_node_invocations_total], [arc_node_rows_total],
    [arc_node_excl_ns], [arc_node_rows], [arc_node_q_error], all labeled
    by [op]; and [arc_fixpoint_ns_total], the recursive heads' fixpoint
    time). The Q-errors score [Card]'s estimates under the statistics
    [cenv], as {!Arc_plan.Explain.analyze_info} does with the same
    [cenv]. *)

val spans_of_stats :
  Arc_plan.Ir.program_plan -> Arc_plan.Ir.stats -> Arc_obs.Json.t list
(** Render a run's per-node actuals as spans for [arc analyze -f jsonl]:
    one object [{"id", "parent", "name", "start_ns", "dur_ns", "attrs"}]
    per executed plan node, in preorder (parents before children;
    [parent] is [null] for roots). A node's span is named by
    {!Arc_plan.Ir.op_name} (union heads as [collection:<name>]) and
    carries its actuals ([rows], [invocations]; [build], [probe],
    [matches] on hash and semi/anti joins; [fixpoint_ns] on a recursive
    head; [rename], the relation renamed, on an identity-rename head). Each recursive stratum is preceded by a
    [fixpoint:seminaive|naive] span (delta rules or whole-definition
    rules, see {!exec_program}) whose [seed] and [iteration] children
    last one round each and carry [delta:<name>]. A span aggregates
    every invocation of its node, so its children are laid back to back
    from its start, the first root at 0, and its duration covers them. *)

val chrome_trace : Arc_obs.Json.t list -> Arc_obs.Json.t
(** Spans as a Chrome trace-event array ([arc analyze -f chrome], for
    [chrome://tracing] or Perfetto): one ["ph": "X"] duration event per
    span, [ts] and [dur] in microseconds, [args] the span's [attrs]. *)

(** {1 Incremental-maintenance hooks}

    Raw operator entry points for {!Arc_ivm}: execute a bare pipeline, a
    collection plan, or one definition stratum against an explicit
    context (stats off), on the same block pipeline as {!exec_program};
    and compile a disjunct's head as the executor does. *)

val exec_pipeline :
  Eval.Internal.ctx -> Arc_plan.Ir.t -> Row.layout * Row.t array
(** Runs the pipeline block-at-a-time and returns its positional rows
    with their layout: one row per derivation, before projection and
    deduplication, which is what counting-based maintenance needs. Plans
    that differ only in the relations their scans read have one layout. *)

val project_head :
  Eval.Internal.ctx ->
  head ->
  Arc_relation.Schema.t Lazy.t ->
  Row.layout ->
  (attr * term) list ->
  Arc_relation.Tuple.t Row.fn
(** A projection head's tuple for one row of the layout. A head
    attribute without an assignment raises {!Eval.Eval_error}
    ([Head_unassigned]) on the first row. *)

val aggregate_head :
  Eval.Internal.ctx ->
  head ->
  Arc_relation.Schema.t Lazy.t ->
  Row.layout ->
  keys:grouping ->
  var list ->
  formula list ->
  (attr * term) list ->
  Arc_relation.Tuple.t option Row.gfn
(** An aggregate head's tuple for one group (scope variables, HAVING
    conditions, assignments): none when HAVING does not hold, or when the
    group is empty and [keys] is not: only γ∅ aggregates an empty input. *)

val exec_collection :
  Eval.Internal.ctx -> Arc_plan.Ir.coll_plan -> Arc_relation.Relation.t

val exec_stratum_plan : Eval.Internal.ctx -> Arc_plan.Ir.stratum -> unit
(** Materializes the stratum's definitions into the context's IDB,
    running the indexed fixpoint for recursive strata from empty relations
    (with the same stratification check as {!exec_program}). Incremental
    maintenance recomputes a recursive stratum whose inputs changed with
    it. *)

val run :
  ?conv:Arc_value.Conventions.t ->
  ?externals:Externals.impl list ->
  ?guard:Arc_guard.Gov.t ->
  db:Arc_relation.Database.t ->
  program ->
  Eval.outcome
(** Drop-in replacement for {!Eval.run} using the plan engine. *)

val run_rows :
  ?conv:Arc_value.Conventions.t ->
  ?externals:Externals.impl list ->
  ?guard:Arc_guard.Gov.t ->
  db:Arc_relation.Database.t ->
  program ->
  Arc_relation.Relation.t

val run_truth :
  ?conv:Arc_value.Conventions.t ->
  ?externals:Externals.impl list ->
  ?guard:Arc_guard.Gov.t ->
  db:Arc_relation.Database.t ->
  program ->
  Arc_value.Bool3.t
