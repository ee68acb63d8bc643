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
    [ "iters="; "deltas=["; "fix=" ];
  (* the head covers its fixpoint: its own time (index, accumulator,
     bookkeeping) is charged to it, not lost between nodes *)
  List.iter
    (fun ni ->
      match (ni.Explain.ni_head, ni.Explain.ni_actual) with
      | Some "A", Some a ->
          if Int64.compare a.Ir.a_fix_ns 0L <= 0 then
            Alcotest.fail "recursive head has no fixpoint time";
          if Int64.compare ni.Explain.ni_excl_ns 0L <= 0 then
            Alcotest.fail "recursive head reads excl=0"
      | _ -> ())
    (Explain.analyze_info optimized ~stats)

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

(* Fuzz programs (seeds 42, 1009, 2024) bring laterals, appends, semi-joins
   and recursion to the id checks below; a budget trip still leaves the
   actuals recorded so far. *)
let fuzz_programs =
  List.concat_map
    (fun seed ->
      List.filter_map
        (fun i ->
          let case = Arc_fuzz.Gen.gen_case (Random.State.make [| seed; i |]) in
          match Arc_fuzz.Case.validate case with
          | Error _ -> None
          | Ok () ->
              Some
                ( Printf.sprintf "fuzz s%d-c%d" seed i,
                  case.Arc_fuzz.Case.db,
                  case.Arc_fuzz.Case.prog ))
        (List.init 100 Fun.id))
    [ 42; 1009; 2024 ]

(* node ids are stable and dense: preorder numbering covers 0..n-1 with no
   duplicates, matching Ir.program_ids; every id the executor records is a
   node; each node is among its parent's [Ir.node_child_ids]; and each
   definition has [Ir.size_coll] nodes *)
let ids_dense () =
  List.iter
    (fun (name, db, prog) ->
      let ctx, _, optimized, _ =
        Exec.compile ~guard:(Arc_fuzz.Oracle.guard ()) ~db prog
      in
      let stats = Ir.fresh_stats () in
      (try ignore (Exec.exec_program ~stats ctx optimized)
       with Eval.Eval_error _ -> ());
      let infos = Explain.analyze_info optimized ~stats in
      let ids = List.map (fun ni -> ni.Explain.ni_id) infos in
      let sorted = List.sort_uniq compare ids in
      if List.length sorted <> List.length ids then
        Alcotest.failf "%s: duplicate node ids" name;
      List.iteri
        (fun i id ->
          if i <> id then
            Alcotest.failf "%s: ids not dense at %d (got %d)" name i id)
        sorted;
      Hashtbl.iter
        (fun id _ ->
          if not (List.mem id ids) then
            Alcotest.failf "%s: actuals recorded for id %d, not a node" name id)
        stats;
      (* the plan's nodes by id, numbered by the same walk *)
      let nodes = Hashtbl.create 64 in
      let rec walk id n =
        Hashtbl.replace nodes id n;
        List.iter2 walk (Ir.node_child_ids id n) (Ir.children n)
      in
      let def_ids, main_id = Ir.program_ids optimized in
      let roots =
        List.map2
          (fun (dname, id) dp -> (dname, id, dp.Ir.dplan))
          def_ids (Ir.program_defs optimized)
        @
        match optimized.Ir.main with
        | Ir.Main_coll p -> [ ("main", Option.get main_id, p) ]
        | Ir.Main_sentence _ -> []
      in
      List.iter (fun (_, id, p) -> walk id (Ir.C p)) roots;
      List.iter
        (fun ni ->
          match ni.Explain.ni_parent with
          | None -> ()
          | Some p ->
              if
                not
                  (List.mem ni.Explain.ni_id
                     (Ir.node_child_ids p (Hashtbl.find nodes p)))
              then
                Alcotest.failf "%s: node %d not a child of its parent %d" name
                  ni.Explain.ni_id p)
        infos;
      List.iter
        (fun (section, _, p) ->
          let n =
            List.length
              (List.filter (fun ni -> ni.Explain.ni_def = section) infos)
          in
          if n <> Ir.size_coll p then
            Alcotest.failf "%s: %s has %d nodes, size_coll says %d" name
              section n (Ir.size_coll p))
        roots)
    (analyze_workloads @ fuzz_programs)

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
  Exec.export_stats m ~cenv:[] optimized stats;
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

(* a recursive stratum the plan runs as whole-definition rules: its
   recursive reference sits in an ∃ under a disjunction *)
let opaque_workload =
  ( "opaque closure",
    Arc_relation.Database.of_list
      [
        ( "P",
          Relation.of_rows [ "s"; "t" ]
            (List.init 5 (fun i ->
                 [ Arc_value.Value.Int (i + 1);
                   Arc_value.Value.Int (((i + 1) mod 5) + 1) ])) );
      ],
    Arc_syntax.Parser.program_of_string
      "def A := {A(s, t) | exists p in P[A.s = p.s and A.t = p.t and p.s <= \
       2] or exists p in P[A.s = p.s and A.t = p.t and (p.s = 0 or exists a2 \
       in A[p.s = a2.t])]} {Q(s, t) | exists a in A[Q.s = a.s and Q.t = a.t]}"
  )

(* the analytics-rollup shape on an ANALYZEd database: its estimates come
   from statistics, so the metrics must score the same estimates *)
let rollup_workload =
  let module Database = Arc_relation.Database in
  let module V = Arc_value.Value in
  ( "analyzed rollup",
    Database.analyze
      (Database.of_list
         [
           ( "Orders",
             Relation.of_rows [ "cust"; "amount" ]
               (List.map
                  (fun (c, a) -> [ V.Int c; V.Int a ])
                  [ (1, 10); (1, 20); (2, 5); (3, 7); (2, 8) ]) );
           ( "Customers",
             Relation.of_rows [ "cust"; "region" ]
               (List.map
                  (fun (c, r) -> [ V.Int c; V.Str r ])
                  [ (1, "east"); (2, "west"); (3, "east") ]) );
         ]),
    Arc_syntax.Parser.program_of_string
      "{Q(region, total) | exists o in Orders, c in Customers, \
       gamma_{c.region} [o.cust = c.cust and Q.region = c.region and \
       Q.total = sum(o.amount)]}" )

(* trace, analyze and metrics are renderings of one record: per operator,
   the rows (and hash-join build/probe/matches) summed over the rendered
   spans, over analyze_info's actuals and over export_stats's series
   agree, and so do the q-errors of analyze_info and export_stats under
   the database's statistics; and a recursive head's rows are its
   closure, under delta rules and whole-definition rules *)
let views_agree () =
  List.iter
    (fun (name, db, prog) ->
      let cenv = Arc_relation.Database.stats_bindings db in
      let ctx, _raw, optimized, _report = Exec.compile ~db prog in
      let stats = Ir.fresh_stats () in
      ignore (Exec.exec_program ~stats ctx optimized);
      List.iter
        (fun ni ->
          match ni.Explain.ni_actual with
          | Some a when a.Ir.a_iterations > 0 ->
              let closure =
                Option.get (Eval.Internal.idb_get ctx ni.Explain.ni_def)
              in
              Alcotest.(check int)
                (Printf.sprintf "%s: head %s act = closure size" name
                   ni.Explain.ni_def)
                (Relation.cardinality closure) a.Ir.a_rows
          | _ -> ())
        (Explain.analyze_info optimized ~stats);
      let spans = Exec.spans_of_stats optimized stats in
      let span_op sp =
        match Json.member "name" sp with
        | Some (Json.Str name) -> (
            match String.split_on_char ':' name with
            | [ "collection"; _ ] -> Some "union"
            | [ "fixpoint"; _ ] | [ ("seed" | "iteration") ] -> None
            | _ -> Some name)
        | _ -> Alcotest.fail "span without a string name"
      in
      let infos = Explain.analyze_info ~cenv optimized ~stats in
      let actuals =
        List.filter_map
          (fun ni ->
            Option.map (fun a -> (ni.Explain.ni_op, a)) ni.Explain.ni_actual)
          infos
      in
      let m = Metrics.create () in
      Exec.export_stats m ~cenv optimized stats;
      (* a head that renamed its scanned relation says so in every view:
         its node info, its span and the pretty line *)
      let renames =
        List.filter_map
          (fun ni ->
            Option.map
              (fun rel -> (Option.get ni.Explain.ni_head, rel))
              ni.Explain.ni_rename)
          infos
      in
      let span_renames =
        List.filter_map
          (fun sp ->
            match
              ( Json.member "name" sp,
                Option.bind (Json.member "attrs" sp) (Json.member "rename") )
            with
            | Some (Json.Str n), Some (Json.Str rel) ->
                Some (List.nth (String.split_on_char ':' n) 1, rel)
            | _ -> None)
          spans
      in
      Alcotest.(check (list (pair string string)))
        (name ^ ": renamed heads, spans = analyze")
        renames span_renames;
      let pretty = Explain.analyze_to_string ~cenv ~stats optimized in
      List.iter
        (fun (_, rel) ->
          if not (contains ~needle:(" rename=" ^ rel ^ "]") pretty) then
            Alcotest.failf "%s: the pretty tree lacks rename=%s:\n%s" name
              rel pretty)
        renames;
      if
        name = "eq16 transitive closure"
        && renames <> [ (Data.eq16_main.head.head_name, "A") ]
      then Alcotest.failf "%s: the main query is not a rename of A" name;
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
                  acc
                  + Option.value ~default:0
                      (Option.bind (Json.member "attrs" sp) (fun attrs ->
                           Option.bind (Json.member attr attrs) Json.to_int))
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
          let qs =
            List.filter_map
              (fun ni -> if ni.Explain.ni_op = op then ni.Explain.ni_q else None)
              infos
          in
          Alcotest.(check int)
            (Printf.sprintf "%s: %s q-error count, metrics = analyze" name op)
            (List.length qs)
            (Metrics.histogram_count m ~labels:[ ("op", op) ]
               "arc_node_q_error");
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s: %s q-error sum, metrics = analyze" name op)
            (List.fold_left ( +. ) 0.0 qs)
            (Metrics.histogram_sum m ~labels:[ ("op", op) ] "arc_node_q_error");
          Alcotest.(check int)
            (Printf.sprintf "%s: %s rows, metrics = analyze" name op)
            (actual_sum (fun a -> a.Ir.a_rows))
            (Metrics.counter_value m ~labels:[ ("op", op) ]
               "arc_node_rows_total");
          if op = "union" then begin
            let fix_sum =
              actual_sum (fun a ->
                  if a.Ir.a_iterations > 0 then Int64.to_int a.Ir.a_fix_ns
                  else 0)
            in
            check "fixpoint_ns" (span_sum "fixpoint_ns") fix_sum;
            Alcotest.(check int)
              (Printf.sprintf "%s: fixpoint_ns, metrics = analyze" name)
              fix_sum
              (Metrics.counter_value m ~labels:[ ("op", op) ]
                 "arc_fixpoint_ns_total")
          end;
          if op = "hash_join" then begin
            check "build" (span_sum "build")
              (actual_sum (fun a -> a.Ir.a_build));
            check "probe" (span_sum "probe")
              (actual_sum (fun a -> a.Ir.a_probe));
            check "matches" (span_sum "matches")
              (actual_sum (fun a -> a.Ir.a_matches))
          end)
        ops)
    (analyze_workloads @ [ opaque_workload; rollup_workload ])

(* a scan's row count is exact only when it was counted: over an ANALYZEd
   chain, eq16's main query scans the definition A at a guessed size *)
let guessed_scan_is_heuristic () =
  let db = Arc_relation.Database.analyze Data.db_parent in
  let optimized, stats, _ =
    run_with_stats db { defs = Data.eq16_defs; main = Coll Data.eq16_main }
  in
  let src_of ~def rel =
    List.filter_map
      (fun ni ->
        if
          ni.Explain.ni_def = def && ni.Explain.ni_op = "scan"
          && contains ~needle:("scan " ^ rel ^ " as") ni.Explain.ni_label
        then Some ni.Explain.ni_src
        else None)
      (Explain.analyze_info
         ~cenv:(Arc_relation.Database.stats_bindings db)
         optimized ~stats)
  in
  Alcotest.(check (list string)) "main's scan of A" [ "heuristic" ]
    (src_of ~def:"main" "A");
  match src_of ~def:"A" "P" with
  | [] -> Alcotest.fail "no scan of P in A's plan"
  | srcs ->
      List.iter (Alcotest.(check string) "A's scans of P" "exact") srcs

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
          Alcotest.test_case "a guessed scan size is heuristic" `Quick
            guessed_scan_is_heuristic;
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
