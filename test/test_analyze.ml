(* EXPLAIN ANALYZE tests: per-node actuals recorded during plan execution
   must agree with what the engine actually returned, Q-error must obey its
   algebra, and the metrics registry must keep its counters straight. *)

open Arc_core.Ast
module Relation = Arc_relation.Relation
module Eval = Arc_engine.Eval
module Exec = Arc_engine.Exec
module Ir = Arc_plan.Ir
module Explain = Arc_plan.Explain
module Metrics = Arc_obs.Metrics
module Obs = Arc_obs.Obs
module Json = Arc_obs.Json
module Data = Arc_catalog.Data

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec at k =
    k + nl <= hl && (String.sub haystack k nl = needle || at (k + 1))
  in
  nl = 0 || at 0

(* catalog queries spanning joins, grouping, aggregation, division, outer
   joins and recursion — the actuals recorded at the root of the main plan must equal
   the cardinality of the relation the engine returned *)
let analyze_workloads =
  [
    ("eq1 join", Data.db_rs, { defs = []; main = Coll Data.eq1 });
    ("eq3 grouping", Data.db_grouping, { defs = []; main = Coll Data.eq3 });
    ("eq8 payroll", Data.db_payroll, { defs = []; main = Coll Data.eq8 });
    ("eq22 division", Data.db_beers, { defs = []; main = Coll Data.eq22 });
    (* outer-join annotation: append, hash anti join and NULL-pad subquery *)
    ("eq18 outer join", Data.db_outer, { defs = []; main = Coll Data.eq18 });
    ( "eq16 transitive closure",
      Data.db_parent,
      { defs = Data.eq16_defs; main = Coll Data.eq16_main } );
  ]

let run_with_stats db prog =
  let ctx, _raw, optimized, _report = Exec.compile ~db prog in
  let stats = Ir.fresh_stats () in
  let outcome = Exec.exec_program ~stats ctx optimized in
  (optimized, stats, outcome)

let actuals_match_output () =
  List.iter
    (fun (name, db, prog) ->
      let optimized, stats, outcome = run_with_stats db prog in
      let cardinality =
        match outcome with
        | Eval.Rows r -> Relation.cardinality r
        | Eval.Truth _ -> Alcotest.failf "%s: unexpected truth outcome" name
      in
      let infos = Explain.analyze_info optimized ~stats in
      (* the main plan's root is the first main node in preorder *)
      let root =
        match
          List.filter (fun ni -> ni.Explain.ni_def = "main") infos
        with
        | [] -> Alcotest.failf "%s: no main nodes in analyze_info" name
        | ni :: _ -> ni
      in
      match root.Explain.ni_actual with
      | None -> Alcotest.failf "%s: main root was never executed" name
      | Some a ->
          Alcotest.(check int)
            (name ^ ": root actual rows = engine output cardinality")
            cardinality a.Ir.a_rows)
    analyze_workloads

(* every executed node carries coherent actuals: invocations >= 1,
   inclusive >= exclusive >= 0, q >= 1 *)
let actuals_coherent () =
  List.iter
    (fun (name, db, prog) ->
      let optimized, stats, _ = run_with_stats db prog in
      List.iter
        (fun ni ->
          match ni.Explain.ni_actual with
          | None -> ()
          | Some a ->
              if a.Ir.a_invocations < 1 then
                Alcotest.failf "%s node %d: zero invocations" name
                  ni.Explain.ni_id;
              if a.Ir.a_rows < 0 then
                Alcotest.failf "%s node %d: negative rows" name
                  ni.Explain.ni_id;
              if Int64.compare ni.Explain.ni_excl_ns 0L < 0 then
                Alcotest.failf "%s node %d: negative exclusive time" name
                  ni.Explain.ni_id;
              if Int64.compare ni.Explain.ni_excl_ns a.Ir.a_incl_ns > 0 then
                Alcotest.failf "%s node %d: exclusive > inclusive" name
                  ni.Explain.ni_id;
              (match ni.Explain.ni_q with
              | Some q when q < 1.0 ->
                  Alcotest.failf "%s node %d: q-error %f < 1" name
                    ni.Explain.ni_id q
              | _ -> ()))
        (Explain.analyze_info optimized ~stats))
    analyze_workloads

(* the rendered tree annotates every node with est/act/q/excl *)
let render_smoke () =
  let optimized, stats, _ =
    run_with_stats Data.db_grouping { defs = []; main = Coll Data.eq3 }
  in
  let out = Explain.analyze_to_string ~stats optimized in
  List.iter
    (fun needle ->
      if not (contains ~needle out) then
        Alcotest.failf "analyze output lacks %S:\n%s" needle out)
    [ "est="; "act="; "q="; "excl=" ];
  (* an absurd warn threshold flags nothing; threshold 1.0 flags any
     node whose estimate missed at all *)
  let strict = Explain.analyze_to_string ~warn_q_error:1.01 ~stats optimized in
  let lax = Explain.analyze_to_string ~warn_q_error:1e9 ~stats optimized in
  if contains ~needle:"misestimate" lax then
    Alcotest.fail "warn threshold 1e9 still flagged a node";
  ignore strict

(* recursion: the fixpoint head reports iterations and per-round deltas *)
let recursion_annotations () =
  let optimized, stats, _ =
    run_with_stats Data.db_parent
      { defs = Data.eq16_defs; main = Coll Data.eq16_main }
  in
  let out = Explain.analyze_to_string ~stats optimized in
  List.iter
    (fun needle ->
      if not (contains ~needle out) then
        Alcotest.failf "recursive analyze output lacks %S:\n%s" needle out)
    [ "iters="; "deltas=[" ]

(* IVM batches patch relation row counts without re-gathering column
   details; the cost model discounts those details and analyze must
   attribute the resulting estimates to stale statistics end-to-end *)
let stale_statistics_flagged () =
  let module Database = Arc_relation.Database in
  let module Tuple = Arc_relation.Tuple in
  let module V = Arc_value.Value in
  let module Ivm = Arc_ivm.Ivm in
  let db = Database.analyze Data.db_rs in
  let prog = { defs = []; main = Coll Data.eq1 } in
  let fresh_out =
    let ctx, _, opt, _ = Exec.compile ~db prog in
    let stats = Ir.fresh_stats () in
    ignore (Exec.exec_program ~stats ctx opt);
    Explain.analyze_to_string ~cenv:(Database.stats_bindings db) ~stats opt
  in
  if contains ~needle:"src=stale" fresh_out then
    Alcotest.fail "freshly analyzed statistics flagged stale";
  let ivm = Ivm.create ~db () in
  Ivm.register ivm ~name:"v" prog;
  let s = Database.find db "S" in
  let row = Tuple.make (Relation.schema s) [| V.Int 42; V.Int 0 |] in
  ignore (Ivm.apply ivm [ ("S", [ (row, 1) ]) ]);
  let db' = Ivm.db ivm in
  let ctx, _, opt, _ = Exec.compile ~db:db' prog in
  let stats = Ir.fresh_stats () in
  ignore (Exec.exec_program ~stats ctx opt);
  let out =
    Explain.analyze_to_string ~cenv:(Database.stats_bindings db') ~stats opt
  in
  if not (contains ~needle:"src=stale" out) then
    Alcotest.failf "post-batch analyze does not flag stale statistics:\n%s" out

let q_error_algebra () =
  let check msg expected actual =
    Alcotest.(check (float 1e-9)) msg expected actual
  in
  check "exact estimate" 1.0 (Ir.q_error 10 10);
  check "underestimate" 100.0 (Ir.q_error 1 100);
  check "overestimate is symmetric" 100.0 (Ir.q_error 100 1);
  check "both zero clamp to 1" 1.0 (Ir.q_error 0 0);
  check "zero estimate clamps" 5.0 (Ir.q_error 0 5);
  check "zero actual clamps" 5.0 (Ir.q_error 5 0)

(* node ids are stable and dense: preorder numbering covers 0..n-1 with no
   duplicates, matching Ir.program_ids *)
let ids_dense () =
  List.iter
    (fun (name, db, prog) ->
      let optimized, stats, _ = run_with_stats db prog in
      let infos = Explain.analyze_info optimized ~stats in
      let ids = List.map (fun ni -> ni.Explain.ni_id) infos in
      let sorted = List.sort_uniq compare ids in
      if List.length sorted <> List.length ids then
        Alcotest.failf "%s: duplicate node ids" name;
      List.iteri
        (fun i id ->
          if i <> id then
            Alcotest.failf "%s: ids not dense at %d (got %d)" name i id)
        sorted)
    analyze_workloads

(* --- metrics registry ------------------------------------------------- *)

let metrics_counters () =
  let m = Metrics.create () in
  Metrics.inc m "req_total";
  Metrics.inc m ~by:4 "req_total";
  Alcotest.(check int) "counter accumulates" 5
    (Metrics.counter_value m "req_total");
  (* label order does not matter: both orders hit the same series *)
  Metrics.inc m ~labels:[ ("op", "scan"); ("def", "main") ] "node_total";
  Metrics.inc m ~labels:[ ("def", "main"); ("op", "scan") ] "node_total";
  Alcotest.(check int) "labels canonicalised" 2
    (Metrics.counter_value m
       ~labels:[ ("op", "scan"); ("def", "main") ]
       "node_total");
  Metrics.set_gauge m "depth" 3.0;
  Metrics.set_gauge m "depth" 7.0;
  (match Metrics.gauge_value m "depth" with
  | Some g -> Alcotest.(check (float 0.0)) "gauge keeps last" 7.0 g
  | None -> Alcotest.fail "gauge missing");
  (* registering the same name as a different kind is a programming error *)
  match Metrics.observe m "req_total" 1.0 with
  | () -> Alcotest.fail "kind conflict not detected"
  | exception Invalid_argument _ -> ()

let metrics_histograms () =
  let m = Metrics.create () in
  List.iter (fun v -> Metrics.observe m "lat_ns" v) [ 1.0; 2.0; 4.0; 1000.0 ];
  Alcotest.(check int) "count" 4 (Metrics.histogram_count m "lat_ns");
  Alcotest.(check (float 1e-9)) "sum" 1007.0 (Metrics.histogram_sum m "lat_ns");
  (match Metrics.quantile m "lat_ns" 0.5 with
  | Some q when q >= 1.0 && q <= 16.0 -> ()
  | Some q -> Alcotest.failf "median %f outside [1,16]" q
  | None -> Alcotest.fail "median missing");
  let prom = Metrics.to_prometheus m in
  List.iter
    (fun needle ->
      if not (contains ~needle prom) then
        Alcotest.failf "prometheus exposition lacks %S:\n%s" needle prom)
    [ "# TYPE lat_ns histogram"; "lat_ns_bucket"; "lat_ns_sum"; "lat_ns_count";
      "le=\"+Inf\"" ];
  (* the JSON exposition is parsable and round-trips through the parser *)
  let j = Metrics.to_json m in
  match Json.parse (Json.to_string j) with
  | Ok j' when j' = j -> ()
  | Ok _ -> Alcotest.fail "metrics JSON changed under round-trip"
  | Error msg -> Alcotest.failf "metrics JSON unparsable: %s" msg

(* export_stats aggregates per-node actuals into labeled series *)
let metrics_export () =
  let optimized, stats, outcome =
    run_with_stats Data.db_rs { defs = []; main = Coll Data.eq1 }
  in
  let cardinality =
    match outcome with
    | Eval.Rows r -> Relation.cardinality r
    | Eval.Truth _ -> Alcotest.fail "unexpected truth outcome"
  in
  let m = Metrics.create () in
  Exec.export_stats m optimized stats;
  let prom = Metrics.to_prometheus m in
  if not (contains ~needle:"arc_node_invocations_total" prom) then
    Alcotest.failf "export lacks invocations counter:\n%s" prom;
  (* summed over all ops, emitted rows include at least the final output *)
  let total_rows =
    List.fold_left
      (fun acc ni ->
        match ni.Explain.ni_actual with
        | Some a -> acc + a.Ir.a_rows
        | None -> acc)
      0
      (Explain.analyze_info optimized ~stats)
  in
  if total_rows < cardinality then
    Alcotest.failf "node rows (%d) < output cardinality (%d)" total_rows
      cardinality

(* trace, analyze and metrics are renderings of one record: per operator,
   the rows (and hash-join build/probe/matches) summed over the rendered
   spans, over analyze_info's actuals and over export_stats's series
   agree *)
let views_agree () =
  List.iter
    (fun (name, db, prog) ->
      let ctx, _raw, optimized, _report = Exec.compile ~db prog in
      let stats = Ir.fresh_stats () in
      ignore (Exec.exec_program ~stats ctx optimized);
      let rec flatten (sp : Obs.span) =
        sp :: List.concat_map flatten sp.Obs.children
      in
      let spans =
        List.concat_map flatten (Exec.spans_of_stats ctx optimized stats)
      in
      let span_op (sp : Obs.span) =
        match String.split_on_char ':' sp.Obs.name with
        | [ "collection"; _ ] -> Some "union"
        | [ "fixpoint"; _ ] | [ ("seed" | "iteration") ] -> None
        | _ -> Some sp.Obs.name
      in
      let actuals =
        List.filter_map
          (fun ni ->
            Option.map (fun a -> (ni.Explain.ni_op, a)) ni.Explain.ni_actual)
          (Explain.analyze_info optimized ~stats)
      in
      let m = Metrics.create () in
      Exec.export_stats m optimized stats;
      let ops = List.sort_uniq compare (List.map fst actuals) in
      Alcotest.(check (list string))
        (name ^ ": operators with spans = executed operators")
        ops
        (List.sort_uniq compare (List.filter_map span_op spans));
      List.iter
        (fun op ->
          let span_sum attr =
            List.fold_left
              (fun acc sp ->
                if span_op sp = Some op then
                  acc + Option.value ~default:0 (Obs.attr_int sp attr)
                else acc)
              0 spans
          in
          let actual_sum f =
            List.fold_left
              (fun acc (o, a) -> if o = op then acc + f a else acc)
              0 actuals
          in
          let check what span actual =
            Alcotest.(check int)
              (Printf.sprintf "%s: %s %s, spans = analyze" name op what)
              actual span
          in
          check "rows" (span_sum "rows") (actual_sum (fun a -> a.Ir.a_rows));
          Alcotest.(check int)
            (Printf.sprintf "%s: %s rows, metrics = analyze" name op)
            (actual_sum (fun a -> a.Ir.a_rows))
            (Metrics.counter_value m ~labels:[ ("op", op) ]
               "arc_node_rows_total");
          if op = "hash_join" then begin
            check "build" (span_sum "build")
              (actual_sum (fun a -> a.Ir.a_build));
            check "probe" (span_sum "probe")
              (actual_sum (fun a -> a.Ir.a_probe));
            check "matches" (span_sum "matches")
              (actual_sum (fun a -> a.Ir.a_matches))
          end)
        ops)
    analyze_workloads

let () =
  Alcotest.run "arc_analyze"
    [
      ( "actuals",
        [
          Alcotest.test_case "root rows = engine output on catalog queries"
            `Quick actuals_match_output;
          Alcotest.test_case "per-node actuals are coherent" `Quick
            actuals_coherent;
          Alcotest.test_case "node ids are dense preorder" `Quick ids_dense;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "est/act/q/excl on every node" `Quick
            render_smoke;
          Alcotest.test_case "fixpoint iterations and deltas" `Quick
            recursion_annotations;
          Alcotest.test_case "stale statistics flagged after IVM batches"
            `Quick stale_statistics_flagged;
        ] );
      ( "q-error",
        [ Alcotest.test_case "q-error algebra" `Quick q_error_algebra ] );
      ( "metrics",
        [
          Alcotest.test_case "counters, labels, gauges, kind conflicts"
            `Quick metrics_counters;
          Alcotest.test_case "histograms and expositions" `Quick
            metrics_histograms;
          Alcotest.test_case "export_stats aggregates node actuals" `Quick
            metrics_export;
          Alcotest.test_case "trace, analyze and metrics agree per operator"
            `Quick views_agree;
        ] );
    ]
