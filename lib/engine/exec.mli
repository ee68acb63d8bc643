(** Physical plan executor: runs the {!Arc_plan} IR with hash-based join,
    semi/anti-join, aggregation and deduplication operators. Every
    collection lowers to a plan; per-row semantics (terms, predicates,
    residual formulas, governed scans, deferred resolution) are shared with
    {!Eval} via its internals, so the two engines can only differ in what
    they enumerate — which is exactly what the differential tests check. *)

open Arc_core.Ast

val compile :
  ?conv:Arc_value.Conventions.t ->
  ?externals:Externals.impl list ->
  ?strategy:Eval.recursion_strategy ->
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
    context's IDB (hash-based naive or seminaive fixpoints for recursive
    strata), then runs the main plan. Raises {!Eval.Eval_error} like the
    reference evaluator.

    Operators run block-at-a-time: they work on row arrays with amortized
    governor probes, buffer-reused (or memoized whole-tuple) hash keys,
    and constant-time group appends.

    Recursive strata run the seminaive fixpoint when the strategy is
    seminaive and the stratum passes {!Arc_plan.Ir.seminaive_eligible},
    and the naive fixpoint otherwise. The seminaive fixpoint is indexed:
    it runs one delta rule per component-scan occurrence with persistent
    caches — hash-join build tables and component-free subtree results
    survive across rounds, and a seen-set of canonical tuple keys
    replaces per-round dedup/diff. Each round appends its delta to the
    accumulated relation in place ({!Arc_relation.Relation.union}), so a
    round costs O(delta), not O(closure).

    When [stats] is given, every operator additionally records per-node
    actuals (invocations, rows emitted, inclusive wall-clock, hash
    build/probe/match counts, fixpoint iterations, delta sizes,
    per-round wall-clock and the fixpoint's own time) into it, keyed by the stable node ids of
    {!Arc_plan.Ir.program_ids}. These actuals are the plan engine's only
    instrumentation: [arc analyze]
    ({!Arc_plan.Explain.analyze_to_string}), [arc trace]
    ({!spans_of_stats}) and [arc eval --profile] ({!export_stats}) all
    render them.

    A recursive head's inclusive time covers its whole fixpoint, and its
    [a_fix_ns] is the part spent outside every plan node: seen-set
    probes, accumulator appends and round bookkeeping. So the head's
    exclusive time is the fixpoint's own work, not 0. *)

val export_stats :
  Arc_obs.Metrics.t ->
  Arc_plan.Ir.program_plan ->
  Arc_plan.Ir.stats ->
  unit
(** Aggregate a run's per-node actuals into operator-level metrics
    series ([arc_node_invocations_total], [arc_node_rows_total],
    [arc_node_excl_ns], [arc_node_rows], [arc_node_q_error], all labeled
    by [op]; and [arc_fixpoint_ns_total], the recursive heads' fixpoint
    time). *)

val spans_of_stats :
  Eval.Internal.ctx ->
  Arc_plan.Ir.program_plan ->
  Arc_plan.Ir.stats ->
  Arc_obs.Obs.span list
(** Render a run's per-node actuals as spans for [arc trace]: one per
    executed plan node, named by {!Arc_plan.Ir.op_name} (union heads as
    [collection:<name>]) and carrying its actuals ([rows], [invocations];
    [build], [probe], [matches] on hash and semi/anti joins;
    [fixpoint_ns] on a recursive head). Each
    recursive stratum is preceded by a [fixpoint:seminaive|naive] span
    whose [seed] and [iteration] children last one round each and carry
    [delta:<name>]. *)

(** {1 Incremental-maintenance hooks}

    Raw operator entry points for {!Arc_ivm}: execute a bare pipeline, a
    collection plan, or one definition stratum against an explicit
    context (stats off), on the same block pipeline as {!exec_program}, or
    resume a recursive stratum's fixpoint from the values it holds. *)

val exec_pipeline :
  Eval.Internal.ctx -> Arc_plan.Ir.t -> Eval.Internal.benv list
(** Runs the pipeline block-at-a-time and returns its binding
    environments: one per derivation, before projection and
    deduplication, which is what counting-based maintenance needs. *)

val exec_collection :
  Eval.Internal.ctx -> Arc_plan.Ir.coll_plan -> Arc_relation.Relation.t

val exec_stratum_plan : Eval.Internal.ctx -> Arc_plan.Ir.stratum -> unit
(** Materializes the stratum's definitions into the context's IDB,
    running the naive or indexed seminaive fixpoint for recursive strata
    (with the same stratification check as {!exec_program}). *)

val resume_stratum_plan :
  Eval.Internal.ctx -> Arc_plan.Ir.def_plan list -> unit
(** Runs a recursive component's fixpoint, exactly as
    {!exec_stratum_plan} does, but from the definitions' current IDB values
    instead of from empty: those values seed the indexed fixpoint's
    seen-set (its first delta is the first rule application minus them),
    and the naive fixpoint iterates from them directly. For a monotone
    stratum started from a subset of its least fixpoint over the current
    inputs, the result is that least fixpoint. DRed maintenance resumes
    from the survivors of its over-delete phase. Fixpoint rounds count
    against the context's governor as usual. *)

val run :
  ?conv:Arc_value.Conventions.t ->
  ?externals:Externals.impl list ->
  ?strategy:Eval.recursion_strategy ->
  ?guard:Arc_guard.Gov.t ->
  db:Arc_relation.Database.t ->
  program ->
  Eval.outcome
(** Drop-in replacement for {!Eval.run} using the plan engine. *)

val run_rows :
  ?conv:Arc_value.Conventions.t ->
  ?externals:Externals.impl list ->
  ?strategy:Eval.recursion_strategy ->
  ?guard:Arc_guard.Gov.t ->
  db:Arc_relation.Database.t ->
  program ->
  Arc_relation.Relation.t

val run_truth :
  ?conv:Arc_value.Conventions.t ->
  ?externals:Externals.impl list ->
  ?strategy:Eval.recursion_strategy ->
  ?guard:Arc_guard.Gov.t ->
  db:Arc_relation.Database.t ->
  program ->
  Arc_value.Bool3.t
