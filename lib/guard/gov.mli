(** The resource governor: runtime enforcement of a {!Budget.t}.

    One governor is threaded through one evaluation. The engine probes it at
    its operator boundaries — collection entry, scope/join enumeration,
    grouping, fixpoint iterations — so a budget is
    honored within one operator step. Probes on a governor with no active
    limits are a single field test; the default governor (seed-equivalent
    100k fixpoint cap) activates nothing else.

    Enforcement policy is [on_limit]:
    - [`Fail] (default): crossing a limit raises
      {!Error.Guard_error} with [Budget_exceeded]. The engine's
      [Eval_error] is the same exception; collection context is added on
      the way out.
    - [`Truncate]: graceful degradation. Charging calls clip their row
      allowance, fixpoint loops stop early, deeper collections evaluate to
      empty — evaluation completes with a partial result (a subset of the
      full result for monotone programs) and {!report} says what tripped.

    Cancellation (via a {!Cancel.t}) always raises [Cancelled], regardless
    of [on_limit]. *)

type t

type event = { resource : Budget.resource; limit : int; used : int }

type report = {
  truncated : bool;
  events : event list;  (** one per tripped resource, first trip first *)
  rows : int;  (** rows materialized (counted only while limited) *)
  bindings : int;  (** bindings enumerated (counted only while limited) *)
  elapsed_ns : int64;
}

val make :
  ?clock:(unit -> int64) ->
  ?cancel:Cancel.t ->
  ?on_limit:[ `Fail | `Truncate ] ->
  Budget.t ->
  t
(** [clock] defaults to the process monotonic clock (nanoseconds); inject a
    fake clock for deterministic deadline tests. The deadline starts
    counting at [make]. *)

val default : unit -> t
(** Seed-equivalent: {!Budget.default}, [`Fail]. *)

val unlimited : unit -> t

val budget : t -> Budget.t
val on_limit : t -> [ `Fail | `Truncate ]

val active : t -> bool
(** [true] when any per-probe limit is configured (deadline, rows,
    bindings, depth, or a cancel token). Guard any work done only to feed a
    probe (e.g. [List.length] on a hot path) with this. The fixpoint cap
    alone does not make a governor active. *)

val tick : t -> unit
(** Deadline and cancellation probe. Raises on a crossed deadline in
    [`Fail] mode and on a cancelled token always; trips the wall-clock
    event in [`Truncate] mode. *)

val stopped : t -> bool
(** [true] once any limit tripped in [`Truncate] mode — enumerators use it
    to short-circuit residual work. Always [false] in [`Fail] mode. *)

val charge_rows : t -> int -> int
(** [charge_rows g n] accounts for [n] rows about to be materialized and
    returns how many of them may be kept (always [n] unless [max_rows] is
    set and crossed). *)

val charge_bindings : t -> int -> int
(** Same accounting for enumerated scope bindings ([max_bindings]). *)

val iteration_allowed : t -> int -> bool
(** [iteration_allowed g i] gates fixpoint round [i] (1-based, counted per
    stratum). [`Fail]: raises once [i] exceeds the budget. [`Truncate]:
    returns [false], leaving the partial fixpoint in place. *)

val enter_collection : t -> bool
(** Depth guard around a collection evaluation; [false] means "do not
    evaluate, substitute the empty relation" ([`Truncate] mode only).
    Balance every [true] return with {!leave_collection}. *)

val leave_collection : t -> unit

val report : t -> report
