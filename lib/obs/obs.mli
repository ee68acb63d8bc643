(** Trace spans: the render type of the plan engine's per-node actuals
    ({!Arc_engine.Exec.spans_of_stats}), which the sinks ({!Sink.pretty},
    {!Sink.jsonl}, {!Sink.chrome}) print. *)

(** Typed attribute values carried by spans. *)
type value = Int of int | Float of float | Str of string | Bool of bool

(** One finished span; [children] are in execution order. *)
type span = {
  id : int;
  parent : int option;
  name : string;
  start_ns : int64;
  duration_ns : int64;
  attrs : (string * value) list;
  children : span list;
}

val attr_int : span -> string -> int option

val find_spans : span list -> string -> span list
(** All spans (recursively) with the given name, preorder. *)

val value_to_string : value -> string
