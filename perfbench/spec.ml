(* What the benchmark measures, by name: its workloads, its end-to-end
   metrics with their regression bounds, and its per-layer metrics.
   BENCHMARK.json at the repository root is [to_json ()] verbatim (the
   test suite checks this), so the names here are the contract later
   changes claim gains against. *)

let run_seconds = 55

let workloads =
  [
    ( "queries",
      "read path, fixed 20-op cycle: 8 dashboard SQL over 20k orders (ANALYZE, \
       joins, aggregates), 6 lateral + 2 scalar-subquery SQL, 4 closures of a \
       256-edge chain" );
    ( "ivm",
      "signed batches (80% orders, 20% chain edges) against a counting rollup \
       view over 20k orders and a DRed closure view, both read back" );
  ]

type better = Lower | Higher

(* name, unit, better, bound (share of the parent's median) *)
let end_to_end =
  [
    ("latency_p50_ms", "ms", Lower, 0.25);
    ("latency_p90_ms", "ms", Lower, 0.25);
    ("ops_per_s", "1/s", Higher, 0.25);
    ("peak_heap_mb", "MB", Lower, 0.15);
    ("setup_s", "s", Lower, 0.25);
  ]

(* Per-op means unless the name says otherwise; [.ms] is self time. *)
let per_layer =
  [
    ("sql.parse.ms", "ms", Lower);
    ("sql.to_arc.ms", "ms", Lower);
    ("syntax.parse.ms", "ms", Lower);
    ("plan.magic.ms", "ms", Lower);
    ("engine.prepare.ms", "ms", Lower);
    ("plan.lower.ms", "ms", Lower);
    ("plan.optimize.ms", "ms", Lower);
    ("relation.analyze.ms", "ms", Lower);
    ("relation.analyze.words", "words", Lower);
    ("relation.analyze.rows_in", "rows", Lower);
    ("engine.exec.ms", "ms", Lower);
    ("engine.exec.words", "words", Lower);
    ("engine.exec.rows_out", "rows", Higher);
    ("engine.exec.ns_per_row_out", "ns/row", Lower);
    ("engine.exec.words_per_row_out", "words/row", Lower);
    ("exec.hash_join.excl_ms", "ms", Lower);
    ("exec.hash_join.build_rows", "rows", Lower);
    ("exec.hash_join.probe_rows", "rows", Lower);
    ("exec.hash_join.matches", "rows", Higher);
    ("exec.hash_join.match_ratio", "ratio", Higher);
    ("exec.hash_aggregate.excl_ms", "ms", Lower);
    ("exec.semi.excl_ms", "ms", Lower);
    ("exec.lateral.excl_ms", "ms", Lower);
    ("exec.lateral.invocations", "count", Lower);
    ("exec.fixpoint.excl_ms", "ms", Lower);
    ("exec.fixpoint.iterations", "count", Lower);
    ("exec.fixpoint.delta_rows", "rows", Lower);
    ("relation.render.ms", "ms", Lower);
    ("ivm.apply.ms", "ms", Lower);
    ("ivm.counting.ms", "ms", Lower);
    ("ivm.dred.ms", "ms", Lower);
    ("ivm.base_delta.ms", "ms", Lower);
    ("ivm.result.ms", "ms", Lower);
    ("ivm.out_delta_rows", "rows", Lower);
    ("ivm.fallbacks", "count", Lower);
    ("ivm.state_rows", "rows", Lower);
    ("gc.minor_words", "words", Lower);
    ("gc.major_collections", "count", Lower);
    ("trace.overhead_pct", "%", Lower);
  ]

let unit_of name =
  match List.find_opt (fun (n, _, _, _) -> n = name) end_to_end with
  | Some (_, u, _, _) -> u
  | None ->
      let _, u, _ = List.find (fun (n, _, _) -> n = name) per_layer in
      u

let better_s = function Lower -> "lower" | Higher -> "higher"

let to_json () =
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  let items f l = String.concat ",\n" (List.map f l) in
  p "{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n";
  p "  \"paths\": [\"perfbench\"],\n";
  p "  \"run_seconds\": %d,\n" run_seconds;
  p "  \"workloads\": [\n%s\n  ],\n"
    (items
       (fun (n, why) -> Printf.sprintf "    {\"name\": %S, \"why\": %S}" n why)
       workloads);
  p "  \"end_to_end\": [\n%s\n  ],\n"
    (items
       (fun (n, u, bt, bound) ->
         Printf.sprintf
           "    {\"name\": %S, \"unit\": %S, \"better\": %S, \"bound\": %g}" n
           u (better_s bt) bound)
       end_to_end);
  p "  \"per_layer\": [\n%s\n  ]\n}\n"
    (items
       (fun (n, u, bt) ->
         Printf.sprintf "    {\"name\": %S, \"unit\": %S, \"better\": %S}" n u
           (better_s bt))
       per_layer);
  Buffer.contents b
