(* The benchmark harness: regenerates every table/figure behavior the paper
   reports (Part 1), times each experiment and the library's main code paths
   with Bechamel (Parts 2-3), reports modality-size metrics as a proxy for
   the paper's cited user studies (Part 4), collects per-operator counters
   from traced workloads (Part 5), and writes everything as machine-readable
   JSON to BENCH_1.json (override with the BENCH_OUT env var).

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

let rule () = print_endline (String.make 78 '=')

let section title =
  rule ();
  print_endline title;
  rule ()

(* ------------------------------------------------------------------ *)
(* Part 1: reproduction of every figure/table behavior                 *)
(* ------------------------------------------------------------------ *)

let reproduce () =
  section "PART 1 — Paper reproduction: every figure and equation";
  let total = ref 0 and failed = ref 0 in
  List.iter
    (fun (e : Catalog.entry) ->
      Printf.printf "\n%-18s %s\n%-18s (%s)\n" e.Catalog.id e.Catalog.title ""
        e.Catalog.paper_ref;
      List.iter
        (fun o ->
          incr total;
          if not o.Catalog.ok then incr failed;
          Printf.printf "    %s\n" (Catalog.outcome_to_string o))
        (e.Catalog.run ()))
    Catalog.all;
  Printf.printf "\n>>> %d checks, %d failures across %d experiments\n" !total
    !failed
    (List.length Catalog.all);
  (!total, !failed)

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing                                                   *)
(* ------------------------------------------------------------------ *)

(* Runs a Bechamel group, prints the table, and returns
   [(name, est_ns_per_run)] rows for the JSON report. *)
let run_bench ~name tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.2) ~kde:(Some 500) ()
  in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name tests)
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "\n%-58s %14s\n" "benchmark" "time/run";
  print_endline (String.make 74 '-');
  List.map
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e
        | _ -> nan
      in
      let human =
        if Float.is_nan est then "n/a"
        else if est > 1e9 then Printf.sprintf "%8.2f s " (est /. 1e9)
        else if est > 1e6 then Printf.sprintf "%8.2f ms" (est /. 1e6)
        else if est > 1e3 then Printf.sprintf "%8.2f µs" (est /. 1e3)
        else Printf.sprintf "%8.0f ns" est
      in
      Printf.printf "%-58s %14s\n" name human;
      (name, est))
    rows

(* Bechamel prefixes grouped test names ("guard/…", "engine/…"), so report
   rows are matched by suffix. *)
let find_suffix rows needle =
  match
    List.find_opt
      (fun (n, _) ->
        String.length n >= String.length needle
        && String.sub n (String.length n - String.length needle)
             (String.length needle)
           = needle)
      rows
  with
  | Some (_, est) when not (Float.is_nan est) -> Some est
  | _ -> None

(* Simple warmup/repeat/median timer for ablations where the two arms must
   run the exact same code path (Bechamel's staging would not let the
   per-run setup — a fresh stats table — stay out of the measurement
   cleanly). The arms are sampled interleaved: heap growth and GC drift
   move both arms together, so back-to-back blocks would misread drift as
   overhead. Each pair reports its minimum — the least-interfered run —
   because by this point in the bench the major heap is large and any
   individual sample can eat a collection. *)
let min_pair_ns ?(warmup = 3) ?(repeats = 21) f g =
  Gc.compact ();
  for _ = 1 to warmup do
    f ();
    g ()
  done;
  let sample h =
    let t0 = Metrics.now_ns () in
    h ();
    let t1 = Metrics.now_ns () in
    Int64.to_float (Int64.sub t1 t0)
  in
  let fs = ref [] and gs = ref [] in
  for _ = 1 to repeats do
    fs := sample f :: !fs;
    gs := sample g :: !gs
  done;
  let best l = List.fold_left Float.min Float.infinity l in
  (best !fs, best !gs)

(* ------------------------------------------------------------------ *)
(* Shared workload data                                                *)
(* ------------------------------------------------------------------ *)

(* chain database P(s,t): 0→1→…→n, the recursion workload of Parts 3, 5,
   6, 7 and 8 *)
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

(* orders/customers rollup, the join+aggregate workload of Parts 7-9 *)
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

(* ------------------------------------------------------------------ *)
(* Run metadata: stamped into every BENCH_*.json so the bench           *)
(* trajectory across commits stays comparable                           *)
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

let run_meta ~iterations =
  Json.Obj
    [
      ("git_sha", Json.Str (git_sha ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("iterations", Json.Obj iterations);
    ]

(* the Bechamel config every run_bench group uses (see run_bench) *)
let bechamel_meta =
  run_meta
    ~iterations:
      [
        ("bechamel_limit", Json.Int 1000);
        ("bechamel_quota_s", Json.Float 0.2);
        ("bechamel_kde", Json.Int 500);
      ]

(* ------------------------------------------------------------------ *)
(* Part 2: one timed benchmark per experiment                          *)
(* ------------------------------------------------------------------ *)

let experiment_benches () =
  section "PART 2 — Timing: one benchmark per paper experiment";
  let tests =
    List.map
      (fun (e : Catalog.entry) ->
        Test.make ~name:e.Catalog.id
          (Staged.stage (fun () -> ignore (e.Catalog.run ()))))
      Catalog.all
  in
  run_bench ~name:"experiments" tests

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

let ablation_benches () =
  section
    "PART 3 — Ablations: FIO vs FOI cost, translation, parsing, recursion";
  let db40 = grouped_db 40 and db160 = grouped_db 160 in
  let fio db () = ignore (Eval.run_rows ~db (Arc_core.Ast.program (Arc_core.Ast.Coll Data.eq3)))
  and foi db () = ignore (Eval.run_rows ~db (Arc_core.Ast.program (Arc_core.Ast.Coll Data.eq7))) in
  let sql_text = Data.sql_fig6a in
  let sql_schemas = [ ("R", [ "empl"; "dept" ]); ("S", [ "empl"; "sal" ]) ] in
  let arc_prog =
    Arc_sql.To_arc.statement ~schemas:sql_schemas
      (Arc_sql.Parse.statement_of_string sql_text)
  in
  let comp_text = Arc_syntax.Printer.query (Arc_core.Ast.Coll Data.eq22) in
  let tests =
    [
      Test.make ~name:"eval: FIO grouped aggregate, |R|=40"
        (Staged.stage (fio db40));
      Test.make ~name:"eval: FOI per-tuple aggregate, |R|=40"
        (Staged.stage (foi db40));
      Test.make ~name:"eval: FIO grouped aggregate, |R|=160"
        (Staged.stage (fio db160));
      Test.make ~name:"eval: FOI per-tuple aggregate, |R|=160"
        (Staged.stage (foi db160));
      Test.make ~name:"eval: recursion naive, chain 24"
        (Staged.stage (fun () ->
             ignore
               (Eval.run_rows ~strategy:Eval.Naive ~db:(chain 24) eq16)));
      Test.make ~name:"eval: recursion semi-naive, chain 24"
        (Staged.stage (fun () ->
             ignore
               (Eval.run_rows ~strategy:Eval.Seminaive ~db:(chain 24) eq16)));
      Test.make ~name:"eval: unique-set (4 nested negations), 5 drinkers"
        (Staged.stage (fun () ->
             ignore
               (Eval.run_rows ~db:Data.db_beers
                  (Arc_core.Ast.program (Arc_core.Ast.Coll Data.eq22)))));
      (* tracer overhead: the explicit null tracer must cost the same as the
         default (no tracer argument) path above; the collecting tracer shows
         the price of a full trace *)
      Test.make ~name:"obs: unique-set, explicit null tracer"
        (Staged.stage (fun () ->
             ignore
               (Eval.run_rows ~tracer:Obs.null ~db:Data.db_beers
                  (Arc_core.Ast.program (Arc_core.Ast.Coll Data.eq22)))));
      Test.make ~name:"obs: unique-set, collecting tracer"
        (Staged.stage (fun () ->
             ignore
               (Eval.run_rows ~tracer:(Obs.collector ()) ~db:Data.db_beers
                  (Arc_core.Ast.program (Arc_core.Ast.Coll Data.eq22)))));
      Test.make ~name:"translate: SQL → ARC (Fig 6a)"
        (Staged.stage (fun () ->
             ignore
               (Arc_sql.To_arc.statement ~schemas:sql_schemas
                  (Arc_sql.Parse.statement_of_string sql_text))));
      Test.make ~name:"translate: ARC → SQL (Fig 6a)"
        (Staged.stage (fun () ->
             ignore (Arc_sql.Of_arc.statement ~schemas:sql_schemas arc_prog)));
      Test.make ~name:"parse: comprehension syntax (Eq 22)"
        (Staged.stage (fun () ->
             ignore (Arc_syntax.Parser.query_of_string comp_text)));
      Test.make ~name:"modality: build+link ALT (Eq 22)"
        (Staged.stage (fun () ->
             ignore
               (Arc_alt.Alt.link
                  (Arc_alt.Alt.of_query (Arc_core.Ast.Coll Data.eq22)))));
      Test.make ~name:"modality: build+render higraph (Eq 22)"
        (Staged.stage (fun () ->
             ignore
               (Arc_higraph.Higraph.render
                  (Arc_higraph.Higraph.of_query (Arc_core.Ast.Coll Data.eq22)))));
      Test.make ~name:"canon: canonical form (Eq 22)"
        (Staged.stage (fun () ->
             ignore (Arc_core.Canon.canonical_query (Arc_core.Ast.Coll Data.eq22))));
      Test.make ~name:"intent: similarity Eq3 vs Eq7"
        (Staged.stage (fun () ->
             ignore
               (Arc_intent.Intent.similarity (Arc_core.Ast.Coll Data.eq3)
                  (Arc_core.Ast.Coll Data.eq7))));
    ]
  in
  run_bench ~name:"ablations" tests

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

let traced_workloads () =
  section "PART 5 — Operator counters (traced workloads)";
  let workloads =
    [
      ( "recursion chain24, naive",
        fun tracer ->
          ignore
            (Eval.run_rows ~strategy:Eval.Naive ~tracer ~db:(chain 24) eq16) );
      ( "recursion chain24, seminaive",
        fun tracer ->
          ignore
            (Eval.run_rows ~strategy:Eval.Seminaive ~tracer ~db:(chain 24) eq16)
      );
      ( "FIO grouped aggregate, |R|=40",
        fun tracer ->
          ignore
            (Eval.run_rows ~tracer ~db:(grouped_db 40)
               (Arc_core.Ast.program (Arc_core.Ast.Coll Data.eq3))) );
      ( "unique-set (4 nested negations), 5 drinkers",
        fun tracer ->
          ignore
            (Eval.run_rows ~tracer ~db:Data.db_beers
               (Arc_core.Ast.program (Arc_core.Ast.Coll Data.eq22))) );
    ]
  in
  List.map
    (fun (name, run) ->
      let tracer = Obs.collector () in
      run tracer;
      let summary = Obs.summary (Obs.spans tracer) in
      Printf.printf "\n%s\n" name;
      List.iter
        (fun (a : Obs.agg) ->
          Printf.printf "    %-24s calls=%-6d %s\n" a.Obs.agg_name a.Obs.calls
            (String.concat ", "
               (List.map
                  (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                  a.Obs.counters)))
        summary;
      (name, summary))
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
let guard_benches () =
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
      ( "unique-set eq22",
        fun guard ->
          ignore
            (Eval.run_rows ?guard ~db:Data.db_beers
               (Arc_core.Ast.program (Arc_core.Ast.Coll Data.eq22))) );
      ( "recursion chain24 seminaive",
        fun guard -> ignore (Eval.run_rows ?guard ~db:db_chain eq16) );
    ]
  in
  let tests =
    List.concat_map
      (fun (wname, run) ->
        List.map
          (fun (vname, mk) ->
            Test.make
              ~name:(Printf.sprintf "%s, %s guard" wname vname)
              (Staged.stage (fun () -> run (mk ()))))
          variants)
      workloads
  in
  let rows = run_bench ~name:"guard" tests in
  let find wname vname =
    find_suffix rows (Printf.sprintf "%s, %s guard" wname vname)
  in
  let overhead =
    List.filter_map
      (fun (wname, _) ->
        match (find wname "default", find wname "unlimited", find wname "active")
        with
        | Some base, Some unl, Some act ->
            let pct x = (x -. base) /. base *. 100.0 in
            Printf.printf
              "%s: unlimited-governor overhead %+.2f%%, active-governor \
               overhead %+.2f%%\n"
              wname (pct unl) (pct act);
            Some
              (Json.Obj
                 [
                   ("workload", Json.Str wname);
                   ("default_ns", Json.Float base);
                   ("unlimited_ns", Json.Float unl);
                   ("active_ns", Json.Float act);
                   ("unlimited_overhead_pct", Json.Float (pct unl));
                   ("active_overhead_pct", Json.Float (pct act));
                 ])
        | _ -> None)
      workloads
  in
  (rows, overhead)

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

let matmul = Arc_core.Ast.program (Arc_core.Ast.Coll Data.eq26)

(* The three workloads of the engine ablation (Part 7), reused by the
   EXPLAIN ANALYZE report (Part 8). *)
let engine_workloads () =
  [
    ("recursion: TC chain 48 (eq16)", chain 48, eq16);
    ( "join+aggregate: analytics rollup, 400 orders",
      analytics_db 400,
      analytics_q );
    ("matrix multiplication 16x16 (eq26)", matrices 16, matmul);
  ]

(* The reference evaluator enumerates scopes as cross products and filters
   afterwards; the plan engine compiles the same cores to hash joins,
   hash semi/anti-joins and hash aggregates. Same results (asserted below,
   bag-for-bag), different asymptotics — this part measures the gap on a
   recursive workload, a join+aggregate workload, and sparse matrix
   multiplication (Eq 26 scaled up). *)
let engine_benches () =
  section "PART 7 — Engine ablation: reference evaluator vs compiled plans";
  let workloads = engine_workloads () in
  (* correctness gate first: both engines must agree bag-for-bag *)
  let bag r =
    List.sort compare (List.map Tuple.key (Relation.tuples r))
  in
  let results_match =
    List.for_all
      (fun (name, db, prog) ->
        let ok = bag (Eval.run_rows ~db prog) = bag (Exec.run_rows ~db prog) in
        if not ok then
          Printf.printf "!!! %s: plan engine diverges from reference\n" name;
        ok)
      workloads
  in
  Printf.printf "reference ≡ plan on all engine-ablation workloads: %b\n"
    results_match;
  let tests =
    List.concat_map
      (fun (wname, db, prog) ->
        [
          Test.make ~name:(wname ^ ", reference")
            (Staged.stage (fun () -> ignore (Eval.run_rows ~db prog)));
          Test.make ~name:(wname ^ ", plan")
            (Staged.stage (fun () -> ignore (Exec.run_rows ~db prog)));
        ])
      workloads
  in
  let rows = run_bench ~name:"engine" tests in
  let find wname suffix =
    find_suffix rows (Printf.sprintf "%s, %s" wname suffix)
  in
  let speedups =
    List.filter_map
      (fun (wname, _, _) ->
        match (find wname "reference", find wname "plan") with
        | Some refr, Some plan ->
            let speedup = refr /. plan in
            Printf.printf "%s: reference/plan speedup %.2fx\n" wname speedup;
            Some
              (Json.Obj
                 [
                   ("workload", Json.Str wname);
                   ("reference_ns", Json.Float refr);
                   ("plan_ns", Json.Float plan);
                   ("speedup", Json.Float speedup);
                 ])
        | _ -> None)
      workloads
  in
  (rows, speedups, results_match)

(* ------------------------------------------------------------------ *)
(* Part 8: EXPLAIN ANALYZE — per-node actuals and metrics overhead     *)
(* ------------------------------------------------------------------ *)

let node_to_json (ni : Explain.node_info) =
  let base =
    [
      ("id", Json.Int ni.Explain.ni_id);
      ("def", Json.Str ni.Explain.ni_def);
      ("op", Json.Str ni.Explain.ni_op);
      ("est_rows", Json.Int ni.Explain.ni_est);
    ]
  in
  let actual =
    match ni.Explain.ni_actual with
    | None -> [ ("executed", Json.Bool false) ]
    | Some a ->
        [
          ("executed", Json.Bool true);
          ("invocations", Json.Int a.Ir.a_invocations);
          ("act_rows", Json.Int a.Ir.a_rows);
          ("excl_ns", Json.Int (Int64.to_int ni.Explain.ni_excl_ns));
        ]
        @ (match ni.Explain.ni_q with
          | Some q -> [ ("q_error", Json.Float q) ]
          | None -> [])
        @
        if a.Ir.a_iterations > 0 then
          [ ("iterations", Json.Int a.Ir.a_iterations) ]
        else []
  in
  Json.Obj (base @ actual)

(* Per-workload EXPLAIN ANALYZE (per-node estimated vs actual rows,
   Q-error, exclusive time) plus the cost of collecting it: the same plan
   executed with and without a stats table. The off arm is the price
   everyone pays, so the on/off gap must stay within a few percent
   (mirroring the Part 3 tracer and Part 6 governor ablations). *)
let analyze_report () =
  section "PART 8 — EXPLAIN ANALYZE: per-node actuals and metrics overhead";
  List.map
    (fun (wname, db, prog) ->
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
      (* both arms compile fresh each run: exec_program materializes
         strata into the context's IDB, so a reused context would not
         time the same work twice *)
      let off, on =
        min_pair_ns
          (fun () ->
            let ctx, _, opt, _ = Exec.compile ~db prog in
            ignore (Exec.exec_program ctx opt))
          (fun () ->
            let ctx, _, opt, _ = Exec.compile ~db prog in
            ignore (Exec.exec_program ~stats:(Ir.fresh_stats ()) ctx opt))
      in
      let pct = (on -. off) /. off *. 100.0 in
      Printf.printf
        "%s:\n    %d plan nodes, worst q-error %.1f\n    metrics off %.2f \
         ms, on %.2f ms, overhead %+.2f%%\n"
        wname
        (List.length infos)
        worst_q (off /. 1e6) (on /. 1e6) pct;
      Json.Obj
        [
          ("workload", Json.Str wname);
          ("nodes", Json.List (List.map node_to_json infos));
          ("worst_q_error", Json.Float worst_q);
          ("metrics_off_ns", Json.Float off);
          ("metrics_on_ns", Json.Float on);
          ("overhead_pct", Json.Float pct);
        ])
    (engine_workloads ())

(* ------------------------------------------------------------------ *)
(* Part 9: IVM — incremental maintenance vs full re-evaluation         *)
(* ------------------------------------------------------------------ *)

module Ivm = Arc_ivm.Ivm

let ivm_warmup = 2
let ivm_repeats = 15

(* Fresh state per sample: [setup] (view registration = compile + first
   full evaluation, or nothing for the re-eval arm) stays outside the
   timed region; only [run] is measured. Minimum of the repeats, for the
   same reason as [min_pair_ns]. *)
let ivm_best ~setup ~run =
  Gc.compact ();
  let sample () =
    let st = setup () in
    let t0 = Metrics.now_ns () in
    ignore (run st);
    let t1 = Metrics.now_ns () in
    Int64.to_float (Int64.sub t1 t0)
  in
  for _ = 1 to ivm_warmup do
    ignore (sample ())
  done;
  let best = ref Float.infinity in
  for _ = 1 to ivm_repeats do
    best := Float.min !best (sample ())
  done;
  !best

(* The rollup (counting + dirty-group aggregate) and TC chain (DRed)
   workloads of Part 7, now maintained incrementally under single-row and
   small mixed batches and raced against full re-evaluation on the updated
   database. Every arm is gated on [Ivm.check]: the maintained result must
   be bag-equal to from-scratch recomputation before its time counts. *)
let ivm_benches () =
  section "PART 9 — IVM: incremental maintenance vs full re-evaluation";
  let order_row i =
    [ V.Int i; V.Int (i mod 29); V.Int ((i * 13 mod 50) + 1) ]
  in
  let row db rel vs =
    Tuple.make (Relation.schema (Database.find db rel)) (Array.of_list vs)
  in
  let workloads =
    [
      ( "analytics rollup, 400 orders",
        (fun () -> analytics_db 400),
        analytics_q,
        [
          ( "single-row insert",
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
      ( "recursion: TC chain 48 (eq16)",
        (fun () -> chain 48),
        eq16,
        [
          ( "single-row insert",
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
  let all_ok = ref true in
  let rows =
    List.concat_map
      (fun (wname, mk_db, prog, batches) ->
        List.map
          (fun (bname, mk_batch) ->
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
            if not check_ok then begin
              all_ok := false;
              Printf.printf "!!! %s / %s: maintained result diverges\n" wname
                bname
            end;
            let updated = Ivm.db t0 in
            let incr_ns =
              ivm_best ~setup:fresh ~run:(fun (t, batch) -> Ivm.apply t batch)
            in
            let reeval_ns =
              ivm_best
                ~setup:(fun () -> ())
                ~run:(fun () -> Exec.run_rows ~db:updated prog)
            in
            let speedup = reeval_ns /. incr_ns in
            Printf.printf
              "%s / %s:\n    mode=%s |Δout|=%d fallbacks=%d\n    incremental \
               %8.1f µs, re-eval %8.1f µs, speedup %.1fx\n"
              wname bname r.Ivm.vr_mode r.Ivm.vr_out_delta r.Ivm.vr_fallbacks
              (incr_ns /. 1e3) (reeval_ns /. 1e3) speedup;
            Json.Obj
              [
                ("workload", Json.Str wname);
                ("batch", Json.Str bname);
                ("batch_rows", Json.Int (Ivm.batch_rows batch0));
                ("mode", Json.Str r.Ivm.vr_mode);
                ("out_delta", Json.Int r.Ivm.vr_out_delta);
                ("fallbacks", Json.Int r.Ivm.vr_fallbacks);
                ("incremental_ns", Json.Float incr_ns);
                ("reeval_ns", Json.Float reeval_ns);
                ("speedup", Json.Float speedup);
                ("check_ok", Json.Bool check_ok);
              ])
          batches)
      workloads
  in
  (rows, !all_ok)

(* ------------------------------------------------------------------ *)
(* Part 10: statistics ablation (BENCH_8)                              *)
(* ------------------------------------------------------------------ *)

let stats_warmup = 3
let stats_repeats = 21

(* [min_pair_ns] generalized to any number of interleaved arms: every arm
   runs once per round so drift hits them all equally; min over rounds. *)
let min_cycle_ns ?(warmup = stats_warmup) ?(repeats = stats_repeats) arms =
  Gc.compact ();
  for _ = 1 to warmup do
    List.iter (fun (_, f) -> f ()) arms
  done;
  let best = List.map (fun (name, f) -> (name, f, ref Float.infinity)) arms in
  for _ = 1 to repeats do
    List.iter
      (fun (_, f, b) ->
        let t0 = Metrics.now_ns () in
        f ();
        let t1 = Metrics.now_ns () in
        b := Float.min !b (Int64.to_float (Int64.sub t1 t0)))
      best
  done;
  List.map (fun (name, _, b) -> (name, !b)) best

(* Pooled per-node Q-errors over the catalog suite: the same plan and the
   same run actuals scored by the stats-driven cost model and by the
   heuristic estimator. *)
let q_error_medians () =
  let catalog_workloads =
    let open Arc_core.Ast in
    [
      (Data.db_rs, { defs = []; main = Coll Data.eq1 });
      (Data.db_grouping, { defs = []; main = Coll Data.eq3 });
      (Data.db_grouping, { defs = []; main = Coll Data.eq7 });
      (Data.db_payroll, { defs = []; main = Coll Data.eq8 });
      (Data.db_payroll, { defs = []; main = Coll Data.eq10 });
      (Data.db_payroll, { defs = []; main = Coll Data.eq12 });
      (Data.db_beers, { defs = []; main = Coll Data.eq22 });
      (Data.db_matrices, { defs = []; main = Coll Data.eq26 });
    ]
  in
  let q_stats = ref [] and q_heur = ref [] in
  List.iter
    (fun (db, prog) ->
      let adb = Database.analyze db in
      let ctx, _raw, optimized, _report = Exec.compile ~db:adb prog in
      let stats = Ir.fresh_stats () in
      ignore (Exec.exec_program ~stats ctx optimized);
      let take sink infos =
        List.iter
          (fun ni ->
            match ni.Explain.ni_q with
            | Some q -> sink := q :: !sink
            | None -> ())
          infos
      in
      take q_stats
        (Explain.analyze_info
           ~cenv:(Database.stats_bindings adb)
           optimized ~stats);
      take q_heur (Explain.analyze_info optimized ~stats))
    catalog_workloads;
  let median xs =
    match List.sort compare xs with
    | [] -> Float.nan
    | s -> List.nth s (List.length s / 2)
  in
  (median !q_stats, median !q_heur, List.length !q_stats)

(* Statistics on vs off: ANALYZE before planning, or the structural
   heuristic. The rollup and matmul workloads are the Part 7 shapes scaled
   up so that plan choice shows as a step-change rather than run-to-run
   jitter; the TC chain rides along unscaled. Every arm is gated on
   bag-equality with the reference evaluator before its time counts. *)
let stats_workloads () =
  [
    ("recursion: TC chain 48 (eq16)", chain 48, eq16);
    ( "join+aggregate: analytics rollup, 2000 orders",
      analytics_db 2000,
      analytics_q );
    ("matrix multiplication 24x24 (eq26)", matrices 24, matmul);
  ]

let stats_benches () =
  section "PART 10 — Stats ablation: ANALYZE on/off on the engine workloads";
  let arms = [ false; true ]
  and arm_name stats = if stats then "stats=on" else "stats=off" in
  let bag r = List.sort compare (List.map Tuple.key (Relation.tuples r)) in
  let all_equal = ref true in
  let rows =
    List.map
      (fun (wname, db, prog) ->
        let adb = Database.analyze db in
        let run stats () =
          let db = if stats then adb else db in
          let ctx, _raw, opt, _report = Exec.compile ~db prog in
          Exec.exec_program ctx opt
        in
        let reference = bag (Eval.run_rows ~db prog) in
        let bag_equal =
          List.for_all
            (fun arm ->
              match run arm () with
              | Eval.Rows r -> bag r = reference
              | Eval.Truth _ -> false)
            arms
        in
        if not bag_equal then begin
          all_equal := false;
          Printf.printf "!!! %s: ablation arm diverges from reference\n" wname
        end;
        let timed =
          min_cycle_ns
            (List.map
               (fun arm -> (arm_name arm, fun () -> ignore (run arm ())))
               arms)
        in
        let base = List.assoc "stats=off" timed in
        Printf.printf "%s: bag_equal=%b\n" wname bag_equal;
        List.iter
          (fun (name, t) ->
            Printf.printf "    %-26s %10.1f µs  (%.2fx vs stats=off)\n" name
              (t /. 1e3) (base /. t))
          timed;
        Json.Obj
          [
            ("workload", Json.Str wname);
            ("bag_equal", Json.Bool bag_equal);
            ( "arms",
              Json.List
                (List.map
                   (fun (name, t) ->
                     Json.Obj
                       [
                         ("arm", Json.Str name);
                         ("time_ns", Json.Float t);
                         ("speedup_vs_base", Json.Float (base /. t));
                       ])
                   timed) );
            ("stats_speedup", Json.Float (base /. List.assoc "stats=on" timed));
          ])
      (stats_workloads ())
  in
  let median_q_stats, median_q_heur, q_nodes = q_error_medians () in
  Printf.printf
    "catalog q-error (%d nodes): median stats %.3f, heuristic %.3f\n" q_nodes
    median_q_stats median_q_heur;
  (rows, !all_equal, median_q_stats, median_q_heur, q_nodes)

(* ------------------------------------------------------------------ *)
(* Part 11: recursion — indexed seminaive fixpoint, magic sets (BENCH_9) *)
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

(* Recursion on the TC chain the engine ablation uses. The fixpoint arm
   times the indexed seminaive fixpoint (per-disjunct delta rules,
   persistent build-side hash tables, seen-set dedup) on the full closure.
   The magic arms compare the full compile pipeline (which restricts the
   fixpoint to the demanded constant) against the same program lowered
   without the AST rewrite. Every arm is gated on bag-equality before its
   time counts. *)
let fixpoint_benches () =
  section "PART 11 — Recursion: indexed seminaive fixpoint, magic sets";
  let db = chain 48 in
  let bag r = List.sort compare (List.map Tuple.key (Relation.tuples r)) in
  let rows_of = function
    | Eval.Rows r -> r
    | Eval.Truth _ -> Relation.empty []
  in
  let run_fix () =
    let ctx, _, opt, _ = Exec.compile ~db eq16 in
    rows_of (Exec.exec_program ctx opt)
  in
  let tc_bag_equal = bag (run_fix ()) = bag (Eval.run_rows ~db eq16) in
  if not tc_bag_equal then
    print_endline "!!! TC chain 48: fixpoint arm diverges from reference";
  let timed =
    min_cycle_ns [ ("fixpoint=indexed", fun () -> ignore (run_fix ())) ]
  in
  Printf.printf "recursion: TC chain 48 (eq16): bag_equal=%b\n" tc_bag_equal;
  List.iter
    (fun (name, t) -> Printf.printf "    %-26s %10.1f µs\n" name (t /. 1e3))
    timed;
  (* goal-directed arm: magic sets on (the default compile) vs off (the
     same program lowered and optimized without the AST rewrite) *)
  let bound = eq16_bound 47 in
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
  let goal_reference = bag (Eval.run_rows ~db bound) in
  let goal_bag_equal =
    bag (magic_on ()) = goal_reference && bag (magic_off ()) = goal_reference
  in
  if not goal_bag_equal then
    print_endline "!!! goal-directed TC: magic arm diverges from reference";
  let goal_timed =
    min_cycle_ns
      [
        ("magic=on", fun () -> ignore (magic_on ()));
        ("magic=off", fun () -> ignore (magic_off ()));
      ]
  in
  let magic_on_ns = List.assoc "magic=on" goal_timed
  and magic_off_ns = List.assoc "magic=off" goal_timed in
  let magic_speedup = magic_off_ns /. magic_on_ns in
  Printf.printf "goal-directed: ancestors of one node, chain 48: bag_equal=%b\n"
    goal_bag_equal;
  List.iter
    (fun (name, t) -> Printf.printf "    %-26s %10.1f µs\n" name (t /. 1e3))
    goal_timed;
  Printf.printf "    magic-sets speedup %.2fx\n" magic_speedup;
  let gates =
    [
      ("bag_equal_tc", tc_bag_equal);
      ("bag_equal_goal_directed", goal_bag_equal);
      ("magic_beats_full_fixpoint", magic_speedup > 1.0);
    ]
  in
  List.iter
    (fun (name, ok) ->
      Printf.printf "gate %-28s %s\n" name (if ok then "PASS" else "FAIL"))
    gates;
  let arm_row name t =
    Json.Obj [ ("arm", Json.Str name); ("time_ns", Json.Float t) ]
  in
  let json =
    Json.Obj
      [
        ("version", Json.Int 1);
        ("harness", Json.Str "arc-bench-fixpoint");
        ( "meta",
          run_meta
            ~iterations:
              [
                ("cycle_warmup", Json.Int stats_warmup);
                ("cycle_repeats", Json.Int stats_repeats);
              ] );
        ( "workloads",
          Json.List
            [
              Json.Obj
                [
                  ("workload", Json.Str "recursion: TC chain 48 (eq16)");
                  ("bag_equal", Json.Bool tc_bag_equal);
                  ( "arms",
                    Json.List
                      (List.map (fun (n, t) -> arm_row n t) timed) );
                ];
              Json.Obj
                [
                  ( "workload",
                    Json.Str "goal-directed: ancestors of node 47, chain 48" );
                  ("bag_equal", Json.Bool goal_bag_equal);
                  ( "arms",
                    Json.List
                      (List.map (fun (n, t) -> arm_row n t) goal_timed) );
                  ("magic_speedup", Json.Float magic_speedup);
                ];
            ] );
        ("gates", Json.Obj (List.map (fun (n, ok) -> (n, Json.Bool ok)) gates));
        ("gates_ok", Json.Bool (List.for_all snd gates));
      ]
  in
  json

(* ------------------------------------------------------------------ *)
(* JSON report (BENCH_1.json)                                          *)
(* ------------------------------------------------------------------ *)

let time_rows_to_json rows =
  Json.List
    (List.map
       (fun (name, est) ->
         Json.Obj
           [
             ("name", Json.Str name);
             ("time_ns", if Float.is_nan est then Json.Null else Json.Float est);
           ])
       rows)

let workloads_to_json workloads =
  Json.List
    (List.map
       (fun (name, summary) ->
         Json.Obj
           [
             ("name", Json.Str name);
             ( "operators",
               Json.List
                 (List.map
                    (fun (a : Obs.agg) ->
                      Json.Obj
                        [
                          ("operator", Json.Str a.Obs.agg_name);
                          ("calls", Json.Int a.Obs.calls);
                          ("total_ns", Json.Int (Int64.to_int a.Obs.total_ns));
                          ( "counters",
                            Json.Obj
                              (List.map
                                 (fun (k, v) -> (k, Json.Int v))
                                 a.Obs.counters) );
                        ])
                    summary) );
           ])
       workloads)

let () =
  let checks, failures = reproduce () in
  let experiments = experiment_benches () in
  let ablations = ablation_benches () in
  modality_metrics ();
  let workloads = traced_workloads () in
  let guard_rows, guard_overhead = guard_benches () in
  let report =
    Json.Obj
      [
        ("version", Json.Int 1);
        ("harness", Json.Str "arc-bench");
        ("meta", bechamel_meta);
        ( "reproduction",
          Json.Obj
            [ ("checks", Json.Int checks); ("failures", Json.Int failures) ] );
        ("experiments", time_rows_to_json experiments);
        ("ablations", time_rows_to_json ablations);
        ("workloads", workloads_to_json workloads);
      ]
  in
  let out =
    match Sys.getenv_opt "BENCH_OUT" with Some f -> f | None -> "BENCH_1.json"
  in
  Out_channel.with_open_text out (fun oc ->
      output_string oc (Json.pretty report);
      output_char oc '\n');
  let guard_report =
    Json.Obj
      [
        ("version", Json.Int 1);
        ("harness", Json.Str "arc-bench-guard");
        ("meta", bechamel_meta);
        ("rows", time_rows_to_json guard_rows);
        ("overhead", Json.List guard_overhead);
      ]
  in
  let guard_out =
    match Sys.getenv_opt "BENCH3_OUT" with
    | Some f -> f
    | None -> "BENCH_3.json"
  in
  Out_channel.with_open_text guard_out (fun oc ->
      output_string oc (Json.pretty guard_report);
      output_char oc '\n');
  let engine_rows, engine_speedups, engine_match = engine_benches () in
  let engine_report =
    Json.Obj
      [
        ("version", Json.Int 1);
        ("harness", Json.Str "arc-bench-engine");
        ("meta", bechamel_meta);
        ("results_match", Json.Bool engine_match);
        ("rows", time_rows_to_json engine_rows);
        ("speedups", Json.List engine_speedups);
      ]
  in
  let engine_out =
    match Sys.getenv_opt "BENCH4_OUT" with
    | Some f -> f
    | None -> "BENCH_4.json"
  in
  Out_channel.with_open_text engine_out (fun oc ->
      output_string oc (Json.pretty engine_report);
      output_char oc '\n');
  let analyze_rows = analyze_report () in
  let analyze_json =
    Json.Obj
      [
        ("version", Json.Int 1);
        ("harness", Json.Str "arc-bench-analyze");
        ( "meta",
          run_meta
            ~iterations:
              [
                ("min_pair_warmup", Json.Int 3);
                ("min_pair_repeats", Json.Int 21);
              ] );
        ("workloads", Json.List analyze_rows);
      ]
  in
  let analyze_out =
    match Sys.getenv_opt "BENCH6_OUT" with
    | Some f -> f
    | None -> "BENCH_6.json"
  in
  Out_channel.with_open_text analyze_out (fun oc ->
      output_string oc (Json.pretty analyze_json);
      output_char oc '\n');
  let ivm_rows, ivm_ok = ivm_benches () in
  let ivm_json =
    Json.Obj
      [
        ("version", Json.Int 1);
        ("harness", Json.Str "arc-bench-ivm");
        ( "meta",
          run_meta
            ~iterations:
              [
                ("ivm_warmup", Json.Int ivm_warmup);
                ("ivm_repeats", Json.Int ivm_repeats);
              ] );
        ("checks_ok", Json.Bool ivm_ok);
        ("results", Json.List ivm_rows);
      ]
  in
  let ivm_out =
    match Sys.getenv_opt "BENCH7_OUT" with
    | Some f -> f
    | None -> "BENCH_7.json"
  in
  Out_channel.with_open_text ivm_out (fun oc ->
      output_string oc (Json.pretty ivm_json);
      output_char oc '\n');
  let stats_rows, stats_bag_equal, median_q_stats, median_q_heur, q_nodes =
    stats_benches ()
  in
  let gates =
    [
      ("bag_equal", stats_bag_equal);
      ("q_error_improved", median_q_stats < median_q_heur);
    ]
  in
  List.iter
    (fun (name, ok) -> Printf.printf "gate %-28s %s\n" name
        (if ok then "PASS" else "FAIL"))
    gates;
  let stats_json =
    Json.Obj
      [
        ("version", Json.Int 1);
        ("harness", Json.Str "arc-bench-stats");
        ( "meta",
          run_meta
            ~iterations:
              [
                ("stats_warmup", Json.Int stats_warmup);
                ("stats_repeats", Json.Int stats_repeats);
              ] );
        ("workloads", Json.List stats_rows);
        ( "q_error",
          Json.Obj
            [
              ("nodes", Json.Int q_nodes);
              ("median_q_stats", Json.Float median_q_stats);
              ("median_q_heuristic", Json.Float median_q_heur);
            ] );
        ( "gates",
          Json.Obj (List.map (fun (n, ok) -> (n, Json.Bool ok)) gates) );
        ("gates_ok", Json.Bool (List.for_all snd gates));
      ]
  in
  let stats_out =
    match Sys.getenv_opt "BENCH8_OUT" with
    | Some f -> f
    | None -> "BENCH_8.json"
  in
  Out_channel.with_open_text stats_out (fun oc ->
      output_string oc (Json.pretty stats_json);
      output_char oc '\n');
  let fixpoint_json = fixpoint_benches () in
  let fixpoint_out =
    match Sys.getenv_opt "BENCH9_OUT" with
    | Some f -> f
    | None -> "BENCH_9.json"
  in
  Out_channel.with_open_text fixpoint_out (fun oc ->
      output_string oc (Json.pretty fixpoint_json);
      output_char oc '\n');
  rule ();
  Printf.printf
    "bench complete; JSON reports written to %s, %s, %s, %s, %s, %s and %s\n"
    out guard_out engine_out analyze_out ivm_out stats_out fixpoint_out
