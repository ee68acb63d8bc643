(** A process-local metrics registry: named counters, gauges, and
    log-scaled histograms, each keyed by a (sorted) label set, with a
    Prometheus-style text exposition and a JSON exposition built on
    {!Json}.

    The registry complements the plan engine's trace spans
    ({!Arc_engine.Exec.spans_of_stats}): spans answer "where did this one
    run spend its time", the registry accumulates "how much, how many,
    how distributed" across runs — per-plan-node actuals for
    [arc analyze --metrics-out], and campaign counters for [arc fuzz] /
    [arc chaos] / [arc ivm] ([--metrics-out]).

    Families are registered implicitly on first use; using one name with
    two different instrument kinds raises [Invalid_argument]. Label
    lists are canonicalized by sorting, so label order never
    distinguishes two series. *)

type t

val create : unit -> t

val now_ns : unit -> int64
(** The monotonic clock behind span timings, exposed so instrumentation
    outside [lib/obs] (the plan executor, the bench harness) measures
    with the same clock. *)

(** {1 Instruments} *)

val inc : t -> ?labels:(string * string) list -> ?by:int -> string -> unit
(** Increments a counter ([by] defaults to 1; negative increments raise
    [Invalid_argument] — counters only go up). *)

val set_gauge : t -> ?labels:(string * string) list -> string -> float -> unit
(** Sets a gauge to an arbitrary value. *)

val observe : t -> ?labels:(string * string) list -> string -> float -> unit
(** Records one observation into a histogram with log2-scaled buckets
    (upper bounds 1, 2, 4, … 2^40, +Inf) — suitable for latencies in
    nanoseconds and row counts alike. *)

(** {1 Readback (tests and reports)} *)

val counter_value : t -> ?labels:(string * string) list -> string -> int
(** 0 when the series does not exist. *)

val gauge_value : t -> ?labels:(string * string) list -> string -> float option

val histogram_count : t -> ?labels:(string * string) list -> string -> int
val histogram_sum : t -> ?labels:(string * string) list -> string -> float

(** {1 Expositions} *)

val to_prometheus : t -> string
(** Prometheus text format: [# TYPE] headers, one
    [name{label="value"} v] line per series, histogram series expanded
    into cumulative [_bucket{le=…}] lines plus [_sum] / [_count]. *)

val to_json : t -> Json.t
(** JSON exposition: an object mapping family name to
    [{"type": …, "samples": [{"labels": …, …payload…}]}]. Histogram
    buckets are cumulative, mirroring the Prometheus exposition. *)

