(** Observability for the ARC engine: hierarchical trace spans with
    monotonic-clock timings and typed attributes.

    The engine threads a tracer through evaluation ({!Arc_engine.Eval});
    every instrumented operator opens a span, attaches counters (tuples
    scanned/emitted, join candidates vs. survivors, fixpoint deltas, ...)
    and closes it. A {!null} tracer makes every operation a constant-time
    no-op, so uninstrumented runs pay (essentially) nothing; a
    {!collector} builds an in-memory forest of spans that sinks
    ({!Sink.pretty}, {!Sink.jsonl}, {!Sink.chrome}) render afterwards. *)

(** Typed attribute values carried by spans. *)
type value = Int of int | Float of float | Str of string | Bool of bool

(** A finished (or in-flight) span. [duration_ns] is 0 while open;
    [children] are in execution order once the span is closed. *)
type span = {
  id : int;
  parent : int option;
  name : string;
  start_ns : int64;
  mutable duration_ns : int64;
  mutable attrs : (string * value) list;
  mutable children : span list;
}

(** Handle returned by {!enter}: [Dummy] under the null tracer. *)
type handle = Dummy | Live of span

type t

val null : t
(** The no-op tracer: every call below is a constant-time no-op. *)

val collector : ?clock:(unit -> int64) -> unit -> t
(** A collecting tracer. [clock] defaults to the process monotonic clock
    (nanoseconds); inject a fake clock for deterministic tests. *)

val enabled : t -> bool
(** [false] for {!null}. Guard any work done only to produce trace
    attributes (e.g. [List.length] on a hot path) with this. *)

val enter : ?attrs:(string * value) list -> t -> string -> handle
(** Opens a span as a child of the innermost open span. *)

val leave : t -> handle -> unit
(** Closes a span, recording its duration and attaching it to its parent
    (or to the root forest). Closing a span closes any still-open
    descendants first, so exceptional exits stay balanced. *)

val set : handle -> string -> value -> unit
(** Sets (or replaces) an attribute on an open span. *)

val add : handle -> string -> int -> unit
(** Increments an integer attribute (missing or non-integer counts as 0). *)

val count : t -> string -> int -> unit
(** Increments an integer attribute on the innermost open span; no-op when
    no span is open or the tracer is {!null}. *)

val spans : t -> span list
(** The finished root spans, in execution order. *)

val attr_int : span -> string -> int option

val find_spans : span list -> string -> span list
(** All spans (recursively) with the given name, preorder. *)

val counter_total : span list -> string -> int
(** Sum of an integer attribute over a whole forest. *)

val value_to_string : value -> string
