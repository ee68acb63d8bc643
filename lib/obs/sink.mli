(** Render a span forest ({!Obs.span}, as built by
    {!Arc_engine.Exec.spans_of_stats}).

    Three sinks, per the EXPLAIN ANALYZE use case:
    - {!pretty}: human-readable span tree with durations and attributes;
    - {!jsonl}: one flat JSON object per span per line (machine-readable,
      streaming-friendly; spans reference their parent by id);
    - {!chrome}: Chrome trace-event format (load in [chrome://tracing] or
      Perfetto). *)

val pretty : Obs.span list -> string

val jsonl : Obs.span list -> string
(** Each line is an object
    [{"id", "parent", "name", "start_ns", "dur_ns", "attrs"}], emitted in
    preorder (parents before children). [parent] is [null] for roots. *)

val chrome : Obs.span list -> string
(** A complete JSON array of ["ph": "X"] duration events; timestamps are
    microseconds relative to the earliest span. *)

val duration_to_string : int64 -> string
(** Human units: ns, µs, ms or s. *)
