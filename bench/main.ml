(* The benchmark harness: regenerates every table/figure behavior the paper
   reports (Part 1), times each experiment and the library's main code paths
   with Bechamel (Parts 2-3), reports modality-size metrics as a proxy for
   the paper's cited user studies (Part 4), and measures operator counters,
   the guard, the plan engine, EXPLAIN ANALYZE, IVM and magic sets (Parts
   5-10). Every measurement is one [Report.row]; the rows go to BENCH.json
   once [Gate.check] has passed them against the BENCH.json already there.
   A failing run leaves that baseline alone, writes BENCH.failed.json
   instead and exits non-zero.

   Run with:  dune exec bench/main.exe *)

open Bechamel
open Toolkit
module Catalog = Arc_catalog.Catalog
module Data = Arc_catalog.Data
module V = Arc_value.Value
module Relation = Arc_relation.Relation
module Database = Arc_relation.Database
module Eval = Arc_engine.Eval
module Exec = Arc_engine.Exec
module Tuple = Arc_relation.Tuple
module Obs = Arc_obs.Obs
module Json = Arc_obs.Json
module Metrics = Arc_obs.Metrics
module Ir = Arc_plan.Ir
module Explain = Arc_plan.Explain
module Report = Arc_bench.Report
module Gate = Arc_bench.Gate

let bench_file = "BENCH.json"
let failed_file = "BENCH.failed.json"

let rule () = print_endline (String.make 78 '=')

let section title =
  rule ();
  print_endline title;
  rule ()

let human ns =
  if Float.is_nan ns then "n/a"
  else if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%8.2f µs" (ns /. 1e3)
  else Printf.sprintf "%8.0f ns" ns

let show (r : Report.row) =
  Printf.printf "%-62s %14s\n"
    (String.concat ", "
       ((if r.scale > 0 then [ Printf.sprintf "%s n=%d" r.workload r.scale ]
         else [ r.workload ])
       @ [ r.arm ]
       @ if r.phase = "run" then [] else [ r.phase ]))
    (human r.ns);
  r

(* ------------------------------------------------------------------ *)
(* Timers                                                              *)
(* ------------------------------------------------------------------ *)

let bechamel_limit = 1000
let bechamel_quota_s = 0.2
let bechamel_kde = 500

(* Bechamel's OLS estimate of one run of [f], in ns. Each test runs on its
   own, so its estimate is the one row of the analysis. *)
let bechamel f =
  let cfg =
    Benchmark.cfg ~limit:bechamel_limit
      ~quota:(Time.second bechamel_quota_s)
      ~kde:(Some bechamel_kde) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let raw =
    Benchmark.all cfg Instance.[ monotonic_clock ]
      (Test.make ~name:"run" (Staged.stage f))
  in
  Hashtbl.fold
    (fun _ o _ ->
      match Analyze.OLS.estimates o with Some (e :: _) -> e | _ -> Float.nan)
    (Analyze.all ols Instance.monotonic_clock raw)
    Float.nan

let timed_row ?scale ?rows_out ?bag_equal ~workload ~arm f =
  show (Report.row ?scale ?rows_out ?bag_equal ~workload ~arm (bechamel f))

let min_warmup = 3
let min_repeats = 21

(* The timer for every measurement Bechamel does not take. An arm is a
   setup that returns the thunk to time: the setup (a fresh compile, a
   freshly registered IVM view) runs untimed before each sample, and a
   plain arm just returns its thunk. The two arms are sampled interleaved,
   so heap growth and GC drift move both alike instead of reading as a gap
   between back-to-back blocks. Each arm reports its minimum, the
   least-interfered sample: by the later parts the major heap is large
   and any one sample can eat a collection. *)
let min_pair_ns arm1 arm2 =
  Gc.compact ();
  let sample arm =
    let run = arm () in
    let t0 = Metrics.now_ns () in
    run ();
    Int64.to_float (Int64.sub (Metrics.now_ns ()) t0)
  in
  for _ = 1 to min_warmup do
    ignore (sample arm1);
    ignore (sample arm2)
  done;
  let best1 = ref Float.infinity and best2 = ref Float.infinity in
  for _ = 1 to min_repeats do
    best1 := Float.min !best1 (sample arm1);
    best2 := Float.min !best2 (sample arm2)
  done;
  (!best1, !best2)

(* ------------------------------------------------------------------ *)
(* Shared workload data                                                *)
(* ------------------------------------------------------------------ *)

(* chain database P(s,t): 0→1→…→n, the recursion workload *)
let chain n =
  Database.of_list
    [
      ( "P",
        Relation.of_rows [ "s"; "t" ]
          (List.init n (fun i -> [ V.Int i; V.Int (i + 1) ])) );
    ]

let eq16 =
  {
    Arc_core.Ast.defs = Data.eq16_defs;
    main = Arc_core.Ast.Coll Data.eq16_main;
  }

(* orders/customers rollup, the join+aggregate workload *)
let analytics_db n =
  Database.of_list
    [
      ( "Orders",
        Relation.of_rows [ "oid"; "cust"; "amount" ]
          (List.init n (fun i ->
               [ V.Int i; V.Int (i mod 29); V.Int ((i * 13 mod 50) + 1) ])) );
      ( "Customers",
        Relation.of_rows [ "cust"; "region" ]
          (List.init 29 (fun i -> [ V.Int i; V.Int (i mod 5) ])) );
    ]

let analytics_q =
  let open Arc_core.Build in
  Arc_core.Ast.program
    (Arc_core.Ast.Coll
       (collection "Q" [ "region"; "total" ]
          (exists
             ~grouping:[ ("c", "region") ]
             [ bind "o" "Orders"; bind "c" "Customers" ]
             (conj
                [
                  eq (attr "o" "cust") (attr "c" "cust");
                  eq (attr "Q" "region") (attr "c" "region");
                  eq (attr "Q" "total") (sum (attr "o" "amount"));
                ]))))

let program c = Arc_core.Ast.program (Arc_core.Ast.Coll c)
let bag r = List.sort compare (List.map Tuple.key (Relation.tuples r))
let unique_set = "unique-set (eq22)"
let grouped = "grouped aggregate"

(* ------------------------------------------------------------------ *)
(* Parts 1-2: paper reproduction, and one timing per experiment        *)
(* ------------------------------------------------------------------ *)

(* One row per catalog experiment: its Bechamel time per run, and
   [bag_equal] when every check of the experiment reproduced. *)
let catalog_rows () =
  section "PART 1 — Paper reproduction: every figure and equation";
  let total = ref 0 and failed = ref 0 in
  let results =
    List.map
      (fun (e : Catalog.entry) ->
        Printf.printf "\n%-18s %s\n%-18s (%s)\n" e.Catalog.id e.Catalog.title ""
          e.Catalog.paper_ref;
        let outcomes = e.Catalog.run () in
        List.iter
          (fun o ->
            incr total;
            if not o.Catalog.ok then incr failed;
            Printf.printf "    %s\n" (Catalog.outcome_to_string o))
          outcomes;
        (e, List.for_all (fun o -> o.Catalog.ok) outcomes))
      Catalog.all
  in
  Printf.printf "\n>>> %d checks, %d failures across %d experiments\n" !total
    !failed
    (List.length Catalog.all);
  section "PART 2 — Timing: one benchmark per paper experiment";
  List.map
    (fun ((e : Catalog.entry), ok) ->
      timed_row ~workload:e.Catalog.id ~arm:"catalog" ~bag_equal:ok (fun () ->
          ignore (e.Catalog.run ())))
    results

(* ------------------------------------------------------------------ *)
(* Part 3: ablations on the design choices DESIGN.md calls out         *)
(* ------------------------------------------------------------------ *)

let grouped_db n =
  Database.of_list
    [
      ( "R",
        Relation.of_rows [ "A"; "B" ]
          (List.init n (fun i -> [ V.Int (i mod 10); V.Int i ])) );
    ]

let ablation_rows () =
  section
    "PART 3 — Ablations: FIO vs FOI cost, translation, parsing";
  let fio n =
    let db = grouped_db n in
    fun () -> ignore (Eval.run_rows ~db (program Data.eq3))
  and foi n =
    let db = grouped_db n in
    fun () -> ignore (Eval.run_rows ~db (program Data.eq7))
  in
  let sql_text = Data.sql_fig6a in
  let sql_schemas = [ ("R", [ "empl"; "dept" ]); ("S", [ "empl"; "sal" ]) ] in
  let arc_prog =
    Arc_sql.To_arc.statement ~schemas:sql_schemas
      (Arc_sql.Parse.statement_of_string sql_text)
  in
  let eq22 = Arc_core.Ast.Coll Data.eq22 in
  let comp_text = Arc_syntax.Printer.query eq22 in
  let unique ?tracer () =
    ignore (Eval.run_rows ?tracer ~db:Data.db_beers (program Data.eq22))
  in
  List.map
    (fun (workload, scale, arm, f) -> timed_row ~workload ~scale ~arm f)
    [
      (grouped, 40, "FIO (eq3)", fio 40);
      (grouped, 40, "FOI (eq7)", foi 40);
      (grouped, 160, "FIO (eq3)", fio 160);
      (grouped, 160, "FOI (eq7)", foi 160);
      (* tracer overhead: the explicit null tracer must cost the same as
         the default (no tracer argument) path; the collecting tracer shows
         the price of a full trace *)
      (unique_set, 5, "reference", fun () -> unique ());
      ( unique_set,
        5,
        "reference, null tracer",
        fun () -> unique ~tracer:Obs.null () );
      ( unique_set,
        5,
        "reference, collecting tracer",
        fun () -> unique ~tracer:(Obs.collector ()) () );
      ( "Fig 6a",
        0,
        "translate SQL → ARC",
        fun () ->
          ignore
            (Arc_sql.To_arc.statement ~schemas:sql_schemas
               (Arc_sql.Parse.statement_of_string sql_text)) );
      ( "Fig 6a",
        0,
        "translate ARC → SQL",
        fun () ->
          ignore (Arc_sql.Of_arc.statement ~schemas:sql_schemas arc_prog) );
      ( unique_set,
        0,
        "parse comprehension syntax",
        fun () -> ignore (Arc_syntax.Parser.query_of_string comp_text) );
      ( unique_set,
        0,
        "build+link ALT",
        fun () -> ignore (Arc_alt.Alt.link (Arc_alt.Alt.of_query eq22)) );
      ( unique_set,
        0,
        "build+render higraph",
        fun () ->
          ignore
            (Arc_higraph.Higraph.render (Arc_higraph.Higraph.of_query eq22)) );
      ( unique_set,
        0,
        "canonical form",
        fun () -> ignore (Arc_core.Canon.canonical_query eq22) );
      ( "eq3 vs eq7",
        0,
        "intent similarity",
        fun () ->
          ignore
            (Arc_intent.Intent.similarity (Arc_core.Ast.Coll Data.eq3)
               (Arc_core.Ast.Coll Data.eq7)) );
    ]

(* ------------------------------------------------------------------ *)
(* Part 4: modality size metrics (proxy for the cited user studies)    *)
(* ------------------------------------------------------------------ *)

let modality_metrics () =
  section
    "PART 4 — Modality sizes (proxy metrics for the paper's user-study \
     citations)";
  Printf.printf "%-22s %12s %10s %10s %10s %10s\n" "query" "sql chars"
    "comp chars" "ALT nodes" "ALT edges" "hg boxes";
  let row name c sql_text =
    let q = Arc_core.Ast.Coll c in
    let comp = Arc_syntax.Printer.query q in
    let alt = Arc_alt.Alt.link (Arc_alt.Alt.of_query q) in
    let hg = Arc_higraph.Higraph.of_query q in
    let st = Arc_higraph.Higraph.stats hg in
    Printf.printf "%-22s %12d %10d %10d %10d %10d\n" name
      (String.length sql_text) (String.length comp) (Arc_alt.Alt.size alt)
      (List.length alt.Arc_alt.Alt.edges)
      (st.Arc_higraph.Higraph.n_tables + st.Arc_higraph.Higraph.n_regions)
  in
  row "eq1 (TRC)" Data.eq1 "select r.A from R r, S s where r.B = s.B and s.C = 0";
  row "eq3 (FIO)" Data.eq3 Data.sql_fig4a;
  row "eq7 (FOI)" Data.eq7 Data.sql_fig5b;
  row "eq8 (multi-agg)" Data.eq8 Data.sql_fig6a;
  row "eq17 (not-in)" Data.eq17 Data.sql_fig11b;
  row "eq22 (unique-set)" Data.eq22 Data.sql_fig17;
  row "eq26 (matmul)" Data.eq26 "n/a";
  row "eq27 (count bug)" Data.eq27 Data.sql_fig21a;
  print_endline
    "\nThe paper's claim (Section 4) is about reading speed and accuracy of\n\
     the diagrammatic modality; these sizes quantify the representations'\n\
     footprints, not human performance.";
  Printf.printf
    "\nFIO vs FOI comparative shape (paper: FOI needs two logical copies of R):\n";
  let p3 = Arc_core.Pattern.of_collection Data.eq3 in
  let p7 = Arc_core.Pattern.of_collection Data.eq7 in
  Printf.printf "  eq3: %s\n  eq7: %s\n"
    (Arc_core.Pattern.to_string p3)
    (Arc_core.Pattern.to_string p7)

(* ------------------------------------------------------------------ *)
(* Part 5: per-operator counters from traced workloads                 *)
(* ------------------------------------------------------------------ *)

(* One row per operator of a traced reference run: its total time over
   all calls and, when the operator counts them, the rows it emitted. The
   other counters are printed here and by [arc trace]. *)
let traced_rows () =
  section "PART 5 — Operator counters (traced workloads)";
  let workloads =
    [
      ( Gate.tc,
        24,
        "reference",
        fun tracer -> ignore (Eval.run_rows ~tracer ~db:(chain 24) eq16) );
      ( grouped,
        40,
        "FIO (eq3)",
        fun tracer ->
          ignore (Eval.run_rows ~tracer ~db:(grouped_db 40) (program Data.eq3))
      );
      ( unique_set,
        5,
        "reference",
        fun tracer ->
          ignore (Eval.run_rows ~tracer ~db:Data.db_beers (program Data.eq22))
      );
    ]
  in
  List.concat_map
    (fun (workload, scale, arm, run) ->
      let tracer = Obs.collector () in
      run tracer;
      Printf.printf "\n%s n=%d, %s\n" workload scale arm;
      List.map
        (fun (a : Obs.agg) ->
          Printf.printf "    %-24s calls=%-6d %s\n" a.Obs.agg_name a.Obs.calls
            (String.concat ", "
               (List.map
                  (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                  a.Obs.counters));
          let rows_out =
            List.find_map
              (fun k -> List.assoc_opt k a.Obs.counters)
              [ "rows_emitted"; "rows_out" ]
          in
          Report.row ~workload ~scale ~arm ~phase:a.Obs.agg_name ?rows_out
            (Int64.to_float a.Obs.total_ns))
        (Obs.summary (Obs.spans tracer)))
    workloads

(* ------------------------------------------------------------------ *)
(* Part 6: guard ablation (governed vs ungoverned evaluation)          *)
(* ------------------------------------------------------------------ *)

module Gov = Arc_guard.Gov
module Budget = Arc_guard.Budget

(* Three governor configurations per workload: the default guard
   (seed-equivalent 100k fixpoint cap, probes inactive), a fully unlimited
   governor (probes inactive, not even the fixpoint cap), and an active
   governor with generous limits nothing ever trips — the last one prices
   the per-probe bookkeeping itself. Governors are single-use (the deadline
   starts at [Gov.make]), so each run builds a fresh one. *)
let guard_rows () =
  section "PART 6 — Guard ablation: governed vs ungoverned evaluation";
  let db_chain = chain 24 in
  let active_guard () =
    Gov.make ~on_limit:`Fail
      (Budget.with_timeout_ms 600_000
         {
           Budget.default with
           Budget.max_rows = Some 100_000_000;
           max_bindings = Some 100_000_000;
           max_depth = Some 10_000;
         })
  in
  let variants =
    [
      ("default", fun () -> None);
      ("unlimited", fun () -> Some (Gov.unlimited ()));
      ("active", fun () -> Some (active_guard ()));
    ]
  in
  let workloads =
    [
      ( unique_set,
        5,
        fun guard ->
          ignore (Eval.run_rows ?guard ~db:Data.db_beers (program Data.eq22)) );
      ( Gate.tc,
        24,
        fun guard -> ignore (Eval.run_rows ?guard ~db:db_chain eq16) );
    ]
  in
  List.concat_map
    (fun (workload, scale, run) ->
      let rows =
        List.map
          (fun (variant, mk) ->
            timed_row ~workload ~scale ~arm:(variant ^ " guard") (fun () ->
                run (mk ())))
          variants
      in
      (match rows with
      | [ base; unl; act ] ->
          let pct (r : Report.row) = (r.ns -. base.ns) /. base.ns *. 100.0 in
          Printf.printf
            "%s: unlimited-governor overhead %+.2f%%, active-governor \
             overhead %+.2f%%\n"
            workload (pct unl) (pct act)
      | _ -> ());
      rows)
    workloads

(* ------------------------------------------------------------------ *)
(* Part 7: engine ablation — reference evaluator vs compiled plans     *)
(* ------------------------------------------------------------------ *)

(* n×n matrices, ~half the entries present *)
let matrices n =
  let mat seed =
    Relation.of_rows [ "row"; "col"; "val" ]
      (List.concat
         (List.init n (fun r ->
              List.filter_map
                (fun c ->
                  if (r + c + seed) mod 2 = 0 then
                    Some [ V.Int r; V.Int c; V.Int ((r * c) + seed) ]
                  else None)
                (List.init n Fun.id))))
  in
  Database.of_list [ ("A", mat 0); ("B", mat 1) ]

(* The three workloads of the engine ablation (Part 7), reused by the
   EXPLAIN ANALYZE report (Part 8). *)
let engine_workloads () =
  [
    (Gate.tc, 48, chain 48, eq16);
    (Gate.rollup, 400, analytics_db 400, analytics_q);
    (Gate.matmul, 16, matrices 16, program Data.eq26);
  ]

(* The reference evaluator enumerates scopes as cross products and filters
   afterwards; the plan engine compiles the same cores to hash joins,
   hash semi/anti-joins and hash aggregates. Same results (the plan arm's
   [bag_equal]), different asymptotics — this part measures the gap on a
   recursive workload, a join+aggregate workload, and sparse matrix
   multiplication (Eq 26 scaled up). *)
let engine_rows () =
  section "PART 7 — Engine ablation: reference evaluator vs compiled plans";
  List.concat_map
    (fun (workload, scale, db, prog) ->
      let reference = Eval.run_rows ~db prog
      and plan = Exec.run_rows ~db prog in
      let bag_equal = bag reference = bag plan in
      if not bag_equal then
        Printf.printf "!!! %s: plan engine diverges from reference\n" workload;
      let rows_out = Relation.cardinality plan in
      let r =
        timed_row ~workload ~scale ~arm:Gate.reference
          ~rows_out:(Relation.cardinality reference) (fun () ->
            ignore (Eval.run_rows ~db prog))
      in
      let p =
        timed_row ~workload ~scale ~arm:Gate.plan ~rows_out ~bag_equal
          (fun () -> ignore (Exec.run_rows ~db prog))
      in
      Printf.printf "%s: reference/plan speedup %.2fx\n" workload
        (r.ns /. p.ns);
      [ r; p ])
    (engine_workloads ())

(* ------------------------------------------------------------------ *)
(* Part 8: EXPLAIN ANALYZE — per-node actuals and metrics overhead     *)
(* ------------------------------------------------------------------ *)

(* Per-workload EXPLAIN ANALYZE: one row per plan node (exclusive time,
   actual rows; a node that never ran has neither), plus the cost of
   collecting it: the same plan executed with and without a stats table.
   The off arm is the price everyone pays; the gap is what collecting the
   actuals costs (mirroring the Part 3 tracer and Part 6 governor
   ablations). *)
let analyze_rows () =
  section "PART 8 — EXPLAIN ANALYZE: per-node actuals and metrics overhead";
  List.concat_map
    (fun (workload, scale, db, prog) ->
      let ctx, _raw, optimized, _report = Exec.compile ~db prog in
      let stats = Ir.fresh_stats () in
      ignore (Exec.exec_program ~stats ctx optimized);
      let infos = Explain.analyze_info optimized ~stats in
      let worst_q =
        List.fold_left
          (fun acc ni ->
            match ni.Explain.ni_q with Some q -> Float.max acc q | None -> acc)
          1.0 infos
      in
      let nodes =
        List.map
          (fun (ni : Explain.node_info) ->
            let phase =
              Printf.sprintf "node %d %s (%s)" ni.Explain.ni_id
                ni.Explain.ni_op ni.Explain.ni_def
            in
            match ni.Explain.ni_actual with
            | None ->
                Report.row ~workload ~scale ~arm:Gate.analyze ~phase Float.nan
            | Some a ->
                Report.row ~workload ~scale ~arm:Gate.analyze ~phase
                  ~rows_out:a.Ir.a_rows
                  (Int64.to_float ni.Explain.ni_excl_ns))
          infos
      in
      (* executing a plan materializes its strata into the context's IDB,
         so every sample compiles a fresh one, untimed *)
      let arm ~metrics () =
        let ctx, _, opt, _ = Exec.compile ~db prog in
        let stats = if metrics then Some (Ir.fresh_stats ()) else None in
        fun () -> ignore (Exec.exec_program ?stats ctx opt)
      in
      let off, on = min_pair_ns (arm ~metrics:false) (arm ~metrics:true) in
      Printf.printf
        "%s:\n    %d plan nodes, worst q-error %.1f\n    metrics off %.2f \
         ms, on %.2f ms, overhead %+.2f%%\n"
        workload (List.length infos) worst_q (off /. 1e6) (on /. 1e6)
        ((on -. off) /. off *. 100.0);
      Report.row ~workload ~scale ~arm:"metrics=off" ~phase:"exec" off
      :: Report.row ~workload ~scale ~arm:"metrics=on" ~phase:"exec" on
      :: nodes)
    (engine_workloads ())

(* ------------------------------------------------------------------ *)
(* Part 9: IVM — incremental maintenance vs full re-evaluation         *)
(* ------------------------------------------------------------------ *)

module Ivm = Arc_ivm.Ivm

(* The rollup (counting + dirty-group aggregate) and TC chain (DRed)
   workloads of Part 7, maintained incrementally under single-row and
   small mixed batches and raced against full re-evaluation on the updated
   database. The maintained arm is named by the mode the maintainer
   reports ("incremental" unless a view fell back), and its [bag_equal] is
   [Ivm.check]: the maintained result against from-scratch recomputation.
   Each incremental sample registers a fresh view, untimed. *)
let ivm_rows () =
  section "PART 9 — IVM: incremental maintenance vs full re-evaluation";
  let order_row i =
    [ V.Int i; V.Int (i mod 29); V.Int ((i * 13 mod 50) + 1) ]
  in
  let row db rel vs =
    Tuple.make (Relation.schema (Database.find db rel)) (Array.of_list vs)
  in
  let workloads =
    [
      ( Gate.rollup,
        400,
        (fun () -> analytics_db 400),
        analytics_q,
        [
          ( Gate.single_row,
            fun db ->
              [ ("Orders", [ (row db "Orders" (order_row 400), 1) ]) ] );
          ( "1% mixed batch (4 rows)",
            fun db ->
              [
                ( "Orders",
                  [
                    (row db "Orders" (order_row 401), 1);
                    (row db "Orders" (order_row 402), 1);
                    (row db "Orders" (order_row 0), -1);
                    (row db "Orders" (order_row 1), -1);
                  ] );
              ] );
        ] );
      ( Gate.tc,
        48,
        (fun () -> chain 48),
        eq16,
        [
          ( Gate.single_row,
            fun db -> [ ("P", [ (row db "P" [ V.Int 48; V.Int 49 ], 1) ]) ]
          );
          ( "mixed batch (4 rows)",
            fun db ->
              [
                ( "P",
                  [
                    (row db "P" [ V.Int 48; V.Int 49 ], 1);
                    (row db "P" [ V.Int 49; V.Int 50 ], 1);
                    (row db "P" [ V.Int 0; V.Int 1 ], -1);
                    (row db "P" [ V.Int 1; V.Int 2 ], -1);
                  ] );
              ] );
        ] );
    ]
  in
  List.concat_map
    (fun (workload, scale, mk_db, prog, batches) ->
      List.concat_map
        (fun (phase, mk_batch) ->
          let fresh () =
            let db = mk_db () in
            let t = Ivm.create ~db () in
            Ivm.register t ~name:"v" prog;
            (t, mk_batch db)
          in
          (* correctness and reporting pass, untimed *)
          let t0, batch0 = fresh () in
          let r = List.hd (Ivm.apply t0 batch0) in
          let check_ok = Ivm.check t0 = [] in
          if not check_ok then
            Printf.printf "!!! %s / %s: maintained result diverges\n" workload
              phase;
          let updated = Ivm.db t0 in
          let incr_ns, reeval_ns =
            min_pair_ns
              (fun () ->
                let t, batch = fresh () in
                fun () -> ignore (Ivm.apply t batch))
              (fun () () -> ignore (Exec.run_rows ~db:updated prog))
          in
          Printf.printf
            "%s n=%d / %s:\n    mode=%s |Δout|=%d fallbacks=%d\n    \
             incremental %8.1f µs, re-eval %8.1f µs, speedup %.1fx\n"
            workload scale phase r.Ivm.vr_mode r.Ivm.vr_out_delta
            r.Ivm.vr_fallbacks (incr_ns /. 1e3) (reeval_ns /. 1e3)
            (reeval_ns /. incr_ns);
          [
            Report.row ~workload ~scale ~arm:r.Ivm.vr_mode ~phase
              ~rows_out:r.Ivm.vr_out_delta ~bag_equal:check_ok incr_ns;
            Report.row ~workload ~scale ~arm:Gate.reeval ~phase
              ~rows_out:(Relation.cardinality (Exec.run_rows ~db:updated prog))
              reeval_ns;
          ])
        batches)
    workloads

(* ------------------------------------------------------------------ *)
(* Part 10: magic sets on a goal-directed recursive query              *)
(* ------------------------------------------------------------------ *)

(* ancestors of one node: the recursion passes [t] through unchanged, so
   the magic-sets rewrite can restrict the fixpoint to the demanded
   constant *)
let eq16_bound c =
  let open Arc_core.Build in
  Arc_core.Ast.program ~defs:Data.eq16_defs
    (Arc_core.Ast.Coll
       (collection "Q" [ "s" ]
          (exists [ bind "a" "A" ]
             (conj
                [
                  eq (attr "a" "t") (cint c);
                  eq (attr "Q" "s") (attr "a" "s");
                ]))))

(* The full compile pipeline (which restricts the fixpoint to the
   demanded constant) against the same program lowered and optimized
   without the AST rewrite, both on the TC chain of the engine ablation.
   Each arm's [bag_equal] compares it with the reference evaluator. *)
let magic_rows () =
  section "PART 10 — Recursion: magic sets on a goal-directed query";
  let db = chain 48 and scale = 48 in
  let bound = eq16_bound 47 in
  let rows_of = function
    | Eval.Rows r -> r
    | Eval.Truth _ -> Relation.empty []
  in
  let magic_on () = rows_of (Exec.run ~db bound) in
  let magic_off () =
    let ctx, safe = Eval.Internal.prepare ~db bound in
    let lenv =
      Arc_plan.Lower.env_of_db ~db
        ~defs:(List.map (fun d -> d.Arc_core.Ast.def_name) safe)
    in
    let raw = Arc_plan.Lower.lower_program lenv ~safe bound in
    let opt, _ = Arc_plan.Opt.optimize lenv raw in
    rows_of (Exec.exec_program ctx opt)
  in
  let reference = bag (Eval.run_rows ~db bound) in
  let on_ns, off_ns =
    min_pair_ns
      (fun () () -> ignore (magic_on ()))
      (fun () () -> ignore (magic_off ()))
  in
  let rows =
    List.map
      (fun (arm, run, ns) ->
        let r = run () in
        show
          (Report.row ~workload:Gate.goal ~scale ~arm
             ~rows_out:(Relation.cardinality r)
             ~bag_equal:(bag r = reference) ns))
      [ (Gate.magic_on, magic_on, on_ns); (Gate.magic_off, magic_off, off_ns) ]
  in
  Printf.printf "magic-sets speedup %.2fx\n" (off_ns /. on_ns);
  rows

(* ------------------------------------------------------------------ *)
(* The report and its gate                                             *)
(* ------------------------------------------------------------------ *)

(* Resolve HEAD by hand (no git subprocess): .git/HEAD either holds the
   sha directly (detached) or a ref, looked up loose then packed. *)
let git_sha () =
  let read f =
    try Some (String.trim (In_channel.with_open_text f In_channel.input_all))
    with _ -> None
  in
  let packed_lookup r =
    match read ".git/packed-refs" with
    | None -> None
    | Some txt ->
        List.find_map
          (fun line ->
            match String.index_opt line ' ' with
            | Some i
              when String.sub line (i + 1) (String.length line - i - 1) = r ->
                Some (String.sub line 0 i)
            | _ -> None)
          (String.split_on_char '\n' txt)
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      match
        if String.length head > 5 && String.sub head 0 5 = "ref: " then
          let r = String.sub head 5 (String.length head - 5) in
          match read (Filename.concat ".git" r) with
          | Some sha -> Some sha
          | None -> packed_lookup r
        else Some head
      with
      | Some sha -> sha
      | None -> "unknown")


let () =
  (* the baseline is read first: a run is not worth its minutes when the
     file it must be held to is unreadable *)
  let baseline =
    match Report.read bench_file with
    | Ok b -> b
    | Error e ->
        Printf.eprintf "%s is not a bench report: %s\n" bench_file e;
        exit 2
  in
  let catalog = catalog_rows () in
  let ablations = ablation_rows () in
  modality_metrics ();
  let traced = traced_rows () in
  let guard = guard_rows () in
  let engine = engine_rows () in
  let analyze = analyze_rows () in
  let ivm = ivm_rows () in
  let magic = magic_rows () in
  let report =
    {
      Report.header =
        {
          Report.git_sha = git_sha ();
          ocaml_version = Sys.ocaml_version;
          iterations =
            [
              ("bechamel_limit", Json.Int bechamel_limit);
              ("bechamel_quota_s", Json.Float bechamel_quota_s);
              ("bechamel_kde", Json.Int bechamel_kde);
              ("min_warmup", Json.Int min_warmup);
              ("min_repeats", Json.Int min_repeats);
            ];
        };
      rows =
        List.concat
          [ catalog; ablations; traced; guard; engine; analyze; ivm; magic ];
    }
  in
  section "Gate";
  if baseline = None then
    Printf.printf "no %s to hold the speedups to: regression check skipped\n"
      bench_file;
  match Gate.check ?baseline report with
  | [] ->
      Report.write bench_file report;
      Printf.printf "all checks passed; %d rows written to %s\n"
        (List.length report.Report.rows)
        bench_file
  | failures ->
      List.iter (Printf.printf "FAIL %s\n") failures;
      Report.write failed_file report;
      Printf.printf "%d check(s) failed; %s left as it was, this run is in %s\n"
        (List.length failures) bench_file failed_file;
      exit 1
