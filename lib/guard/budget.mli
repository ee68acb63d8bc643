(** Resource budgets for query evaluation.

    A budget bounds the five resources the engine can otherwise consume
    without limit: wall-clock time, fixpoint iterations, rows materialized,
    scope bindings enumerated, and collection nesting depth. Every field is
    optional; {!unlimited} bounds nothing, {!default} reproduces the seed
    engine's single hard-coded guard (100k fixpoint iterations). Budgets are
    plain data — enforcement lives in {!Gov}. *)

type resource =
  | Wall_clock  (** elapsed evaluation time (the deadline) *)
  | Fixpoint_iterations  (** rounds of one least-fixpoint stratum *)
  | Rows  (** tuples materialized by collection heads, cumulative *)
  | Bindings  (** scope binding environments enumerated, cumulative *)
  | Depth  (** nesting depth of collection evaluations *)

val resource_to_string : resource -> string

type t = {
  timeout_ns : int64 option;  (** wall-clock budget, nanoseconds *)
  max_iterations : int option;  (** per-stratum fixpoint rounds *)
  max_rows : int option;  (** cumulative rows materialized *)
  max_bindings : int option;  (** cumulative scope bindings enumerated *)
  max_depth : int option;  (** nesting depth of collection evaluation *)
}

val unlimited : t
(** No limits at all (not even the fixpoint cap: a divergent recursive
    program will actually diverge). *)

val default : t
(** Seed-equivalent behavior: [max_iterations = Some 100_000], everything
    else unlimited. *)

val with_timeout_ms : int -> t -> t
(** [with_timeout_ms ms t] sets the wall-clock budget to [ms] milliseconds. *)

val limit : t -> resource -> int option
(** The configured limit for a resource ([Wall_clock] in milliseconds). *)
