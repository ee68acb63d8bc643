(** Incremental view maintenance: registered ARC views kept up to date
    under insert/delete batches instead of re-evaluated.

    A view is compiled once ({!Arc_engine.Exec.compile}); each stratum of
    its plan is classified at registration:

    - {b counting} — non-recursive collections whose disjunct pipelines
      use only multilinear operators (scan, product, hash join, filter,
      prune, relation-free residuals). Projections maintain a signed
      derivation-count table; grouped aggregates keep each group's
      support, the executor's positional rows, and re-aggregate only
      dirty groups with the executor's compiled head.
      Deltas are propagated by executing scan-substituted plans — the
      same rewrite the seminaive fixpoint uses ({!Arc_plan.Ir.subst_scan}).
    - {b recursive} — a recursive stratum whose inputs changed re-runs
      its own fixpoint ({!Arc_engine.Exec.exec_stratum_plan}) over the
      new inputs and is diffed against its old value. Fixpoint relations
      are sets under every convention, so this is exact; each recompute
      counts as a fallback with reason [recursive].
    - {b fallback} — anything else (semi/anti joins, laterals,
      subqueries, deferred resolution, branch unions, relation-reading
      filters) is recomputed from scratch and diffed.

    Every recomputation is counted in metrics
    ([arc_ivm_fallbacks_total{view,reason}], reasons listed in
    docs/ivm.md), never silent.

    Every maintained result is bag-equal to full re-evaluation on the
    updated database — {!check} verifies exactly that. *)

open Arc_core.Ast

exception Ivm_error of string
(** Usage errors (unknown relation, deletion of an absent tuple, sentence
    views) and internal maintenance-state violations. Budget trips raise
    {!Arc_engine.Eval.Eval_error} as elsewhere (see {!apply}). *)

type t

val create :
  ?conv:Arc_value.Conventions.t ->
  ?metrics:Arc_obs.Metrics.t ->
  db:Arc_relation.Database.t ->
  unit ->
  t
(** An engine instance owns the evolving database and its views. All
    views share one convention combo; use one instance per combo. *)

val conv : t -> Arc_value.Conventions.t
val db : t -> Arc_relation.Database.t
val views : t -> string list

val register : t -> name:string -> program -> unit
(** Compile, classify, and materialize a view. Raises {!Ivm_error} for
    sentence queries, duplicate names, or view names in the engine's
    reserved namespace ([__delta__…]/[__ivm__…] — they would collide
    with maintenance working relations), {!Arc_engine.Eval.Eval_error}
    for invalid programs. *)

val result : t -> string -> Arc_relation.Relation.t
(** Current maintained result (sorted). Raises {!Ivm_error} if
    unregistered. *)

(** {1 Batches} *)

type batch = (rel_name * (Arc_relation.Tuple.t * int) list) list
(** Signed updates per base relation: positive multiplicities insert,
    negative delete (see {!Arc_relation.Relation.apply_delta}). *)

val batch_rows : batch -> int
(** Total change volume (sum of absolute multiplicities). *)

val inverse : batch -> batch

type view_report = {
  vr_view : string;
  vr_mode : string;
      (** ["incremental"], ["fallback"], ["mixed"], or ["unchanged"]. *)
  vr_out_delta : int;  (** |signed delta| of the view's visible result. *)
  vr_ns : int64;  (** wall-clock spent maintaining this view. *)
  vr_fallbacks : int;  (** fallback recomputations during this batch. *)
}

val apply : ?guard:Arc_guard.Gov.t -> t -> batch -> view_report list
(** Update the database and maintain every view. The optional [guard]
    budgets the whole batch (prepared per view, as {!Arc_engine.Eval}
    does). Raises {!Ivm_error} on unknown relations, schema mismatches,
    or deletions exceeding multiplicity — in that case neither the
    database nor any view has been modified.

    A budget trip during maintenance raises {!Arc_engine.Eval.Eval_error}.
    It is not atomic: the database has already taken the batch, but the
    views were not all brought up to date, and {!check} flags the stale
    ones. *)

(** {1 Oracle} *)

val check :
  t ->
  (string * Arc_relation.Relation.t * Arc_relation.Relation.t) list
(** Differential recompute: every view is re-evaluated from scratch on
    the current database; returns [(view, maintained, recomputed)] for
    each view whose maintained result is {e not} bag-equal. Empty list =
    all views verified. *)

val fallback_total : t -> int
(** Recomputations from scratch (fallbacks) since creation, across all
    views. *)

val state_rows : t -> int
(** Rows held in maintenance state (count tables, group tables,
    materialized defs and results), for the [arc_ivm_state_rows] gauge. *)
