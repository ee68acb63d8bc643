(* The benchmark harness: regenerates every table/figure behavior the paper
   reports (Part 1), times each experiment and the library's main code paths
   (Parts 2-3), reports modality-size metrics as a proxy for the paper's
   cited user studies (Part 4), and measures the guard, the plan engine,
   EXPLAIN ANALYZE, IVM and magic sets (Parts 6-10). Part 5, the
   per-operator counters of traced reference runs, is retired: [arc trace
   --engine reference] prints the same spans. One timer, [min_group_ns],
   takes every time. Every measurement is one [Report.row]. [Gate.check]
   holds the rows against the committed BENCH.json, and every run, passing
   or failing, writes them to BENCH.run.json; no run rewrites the
   baseline, so a new one is a commit. A failing run exits non-zero.

   Run with:  dune exec --release bench/main.exe *)

module Catalog = Arc_catalog.Catalog
module Data = Arc_catalog.Data
module V = Arc_value.Value
module Relation = Arc_relation.Relation
module Database = Arc_relation.Database
module Eval = Arc_engine.Eval
module Exec = Arc_engine.Exec
module Tuple = Arc_relation.Tuple
module Json = Arc_obs.Json
module Metrics = Arc_obs.Metrics
module Ir = Arc_plan.Ir
module Explain = Arc_plan.Explain
module Report = Arc_bench.Report
module Gate = Arc_bench.Gate

let bench_file = "BENCH.json"
let run_file = "BENCH.run.json"

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

let min_warmup = 3
let min_repeats = 21

(* The one timer. An arm is a setup that returns the thunk to time: the
   setup (a fresh compile, a freshly registered IVM view, a new governor)
   runs untimed before each sample, and a plain arm just returns its
   thunk. The arms of one comparison form a group and are sampled
   interleaved, round by round, so heap growth and GC drift move them
   alike instead of reading as a gap between back-to-back blocks; each
   round starts from the next arm, so no arm always runs first or always
   follows the same neighbour. Each arm reports its minimum over the timed
   rounds, the least-interfered sample: by the later parts the major heap
   is large and any one sample can eat a collection. *)
let min_group_ns arms =
  Gc.compact ();
  let arms = Array.of_list arms in
  let n = Array.length arms in
  let best = Array.make n Float.infinity in
  for round = 0 to min_warmup + min_repeats - 1 do
    for k = 0 to n - 1 do
      let i = (round + k) mod n in
      let run = arms.(i) () in
      let t0 = Metrics.now_ns () in
      run ();
      let ns = Int64.to_float (Int64.sub (Metrics.now_ns ()) t0) in
      if round >= min_warmup then best.(i) <- Float.min best.(i) ns
    done
  done;
  Array.to_list best

(* Times a group of arms, each paired with the row, still unmeasured,
   that its time fills in. *)
let timed_group arms =
  List.map2
    (fun ((row : Report.row), _) ns -> { row with ns })
    arms
    (min_group_ns (List.map snd arms))

(* A row compared with nothing: a group of one plain arm. *)
let timed_row ?scale ?bag_equal ~workload ~arm f =
  let row = Report.row ?scale ?bag_equal ~workload ~arm Float.nan in
  show (List.hd (timed_group [ (row, fun () -> f) ]))

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

(* One row per catalog experiment: its time per run, and [bag_equal] when
   every check of the experiment reproduced. *)
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
  (* FIO against FOI, one group per scale *)
  let fio_foi scale =
    let db = grouped_db scale in
    let arm name q =
      let run () = ignore (Eval.run_rows ~db (program q)) in
      (Report.row ~workload:grouped ~scale ~arm:name Float.nan, fun () -> run)
    in
    List.map show
      (timed_group [ arm "FIO (eq3)" Data.eq3; arm "FOI (eq7)" Data.eq7 ])
  in
  let sql_text = Data.sql_fig6a in
  let sql_schemas = [ ("R", [ "empl"; "dept" ]); ("S", [ "empl"; "sal" ]) ] in
  let arc_prog =
    Arc_sql.To_arc.statement ~schemas:sql_schemas
      (Arc_sql.Parse.statement_of_string sql_text)
  in
  let eq22 = Arc_core.Ast.Coll Data.eq22 in
  let comp_text = Arc_syntax.Printer.query eq22 in
  List.concat_map fio_foi [ 40; 160 ]
  @ List.map
    (fun (workload, scale, arm, f) -> timed_row ~workload ~scale ~arm f)
    [
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
(* Part 6: guard ablation (governed vs ungoverned evaluation)          *)
(* ------------------------------------------------------------------ *)

module Gov = Arc_guard.Gov
module Budget = Arc_guard.Budget

(* Three governor configurations per workload: the default guard
   (seed-equivalent 100k fixpoint cap, probes inactive), a fully unlimited
   governor (probes inactive, not even the fixpoint cap), and an active
   governor with generous limits nothing ever trips — the last one prices
   the per-probe bookkeeping itself. The three are timed as one group.
   Governors are single-use (the deadline starts at [Gov.make]), so each
   sample builds a fresh one, untimed. *)
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
        List.map show
          (timed_group
             (List.map
                (fun (variant, mk) ->
                  ( Report.row ~workload ~scale ~arm:(variant ^ " guard")
                      Float.nan,
                    fun () ->
                      let guard = mk () in
                      fun () -> run guard ))
                variants))
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
      let rows =
        List.map show
          (timed_group
             [
               ( Report.row ~workload ~scale ~arm:Gate.reference
                   ~rows_out:(Relation.cardinality reference) Float.nan,
                 fun () () -> ignore (Eval.run_rows ~db prog) );
               ( Report.row ~workload ~scale ~arm:Gate.plan
                   ~rows_out:(Relation.cardinality plan) ~bag_equal Float.nan,
                 fun () () -> ignore (Exec.run_rows ~db prog) );
             ])
      in
      (match rows with
      | [ r; p ] ->
          Printf.printf "%s: reference/plan speedup %.2fx\n" workload
            (r.ns /. p.ns)
      | _ -> ());
      rows)
    (engine_workloads ())

(* ------------------------------------------------------------------ *)
(* Part 8: EXPLAIN ANALYZE — per-node actuals and metrics overhead     *)
(* ------------------------------------------------------------------ *)

(* Per-workload EXPLAIN ANALYZE: one row per plan node (exclusive time,
   actual rows; a node that never ran has neither), plus the cost of
   collecting it: the same plan executed with and without a stats table.
   The off arm is the price everyone pays; the gap is what collecting the
   actuals costs (mirroring the Part 6 governor ablation). *)
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
      let timed =
        timed_group
          [
            ( Report.row ~workload ~scale ~arm:"metrics=off" ~phase:"exec"
                Float.nan,
              arm ~metrics:false );
            ( Report.row ~workload ~scale ~arm:"metrics=on" ~phase:"exec"
                Float.nan,
              arm ~metrics:true );
          ]
      in
      (match timed with
      | [ off; on ] ->
          Printf.printf
            "%s:\n    %d plan nodes, worst q-error %.1f\n    metrics off \
             %.2f ms, on %.2f ms, overhead %+.2f%%\n"
            workload (List.length infos) worst_q (off.ns /. 1e6)
            (on.ns /. 1e6)
            ((on.ns -. off.ns) /. off.ns *. 100.0)
      | _ -> ());
      timed @ nodes)
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
          let rows =
            timed_group
              [
                ( Report.row ~workload ~scale ~arm:r.Ivm.vr_mode ~phase
                    ~rows_out:r.Ivm.vr_out_delta ~bag_equal:check_ok Float.nan,
                  fun () ->
                    let t, batch = fresh () in
                    fun () -> ignore (Ivm.apply t batch) );
                ( Report.row ~workload ~scale ~arm:Gate.reeval ~phase
                    ~rows_out:
                      (Relation.cardinality (Exec.run_rows ~db:updated prog))
                    Float.nan,
                  fun () () -> ignore (Exec.run_rows ~db:updated prog) );
              ]
          in
          (match rows with
          | [ incr; reeval ] ->
              Printf.printf
                "%s n=%d / %s:\n    mode=%s |Δout|=%d fallbacks=%d\n    \
                 incremental %8.1f µs, re-eval %8.1f µs, speedup %.1fx\n"
                workload scale phase r.Ivm.vr_mode r.Ivm.vr_out_delta
                r.Ivm.vr_fallbacks (incr.ns /. 1e3) (reeval.ns /. 1e3)
                (reeval.ns /. incr.ns)
          | _ -> ());
          rows)
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
  let arm name run =
    let r = run () in
    ( Report.row ~workload:Gate.goal ~scale ~arm:name
        ~rows_out:(Relation.cardinality r) ~bag_equal:(bag r = reference)
        Float.nan,
      fun () () -> ignore (run ()) )
  in
  let rows =
    List.map show
      (timed_group [ arm Gate.magic_on magic_on; arm Gate.magic_off magic_off ])
  in
  (match rows with
  | [ on; off ] -> Printf.printf "magic-sets speedup %.2fx\n" (off.ns /. on.ns)
  | _ -> ());
  rows

(* ------------------------------------------------------------------ *)
(* The report and its gate                                             *)
(* ------------------------------------------------------------------ *)

(* Resolve HEAD by hand: .git/HEAD either holds the sha directly
   (detached) or a ref, looked up loose then packed. The one git
   subprocess marks a tree with uncommitted changes to tracked files:
   [git diff --quiet] exits 1 then, and any other status (a clean tree,
   no git) leaves the sha as read. *)
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
      | Some sha ->
          if Sys.command "git diff --quiet HEAD -- >/dev/null 2>&1" = 1 then
            sha ^ "-dirty"
          else sha
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
              ("min_warmup", Json.Int min_warmup);
              ("min_repeats", Json.Int min_repeats);
            ];
        };
      rows =
        List.concat
          [ catalog; ablations; guard; engine; analyze; ivm; magic ];
    }
  in
  section "Gate";
  if baseline = None then
    Printf.printf "no %s to hold the speedups to: regression check skipped\n"
      bench_file;
  Report.write run_file report;
  Printf.printf "%d rows written to %s\n" (List.length report.Report.rows)
    run_file;
  match Gate.check ?baseline report with
  | [] -> Printf.printf "all checks passed against %s\n" bench_file
  | failures ->
      List.iter (Printf.printf "FAIL %s\n") failures;
      Printf.printf "%d check(s) failed against %s\n" (List.length failures)
        bench_file;
      exit 1
