(** A minimal JSON value type with a printer and a strict parser.

    Kept deliberately tiny — enough for [arc analyze]'s JSON, JSONL and
    Chrome trace output ({!Arc_engine.Exec.spans_of_stats}), the bench
    harness's [BENCH_*.json] output, and round-trip validation in tests
    and CI — so the repo needs no external JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering, with full string escaping. *)

val pretty : t -> string
(** 2-space indented rendering. *)

val parse : string -> (t, string) result
(** Strict parse of a complete JSON document (trailing whitespace ok). *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] otherwise. *)

val to_int : t -> int option
(** [Int] payload (not [Float]). *)
