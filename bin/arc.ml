(* The arc CLI: parse SQL or ARC comprehension text, validate it, render any
   modality, evaluate against inline data, compare candidate queries by
   intent, and browse the paper catalog.

   Examples:
     arc render -i sql -o alt "select R.A from R, S where R.B = S.B"
     arc render -o higraph "{Q(A) | exists r in R[Q.A = r.A]}"
     arc eval -t "R(A,B)=1,10;2,20" "{Q(A) | exists r in R[Q.A = r.A and r.B > 15]}"
     arc validate -s "R:A,B" "{Q(A) | exists r in R[Q.A = r.zz]}"
     arc compare -s "R:A,B" "select R.A from R" "select r.A from R r"
     arc catalog E19-count-bug *)

open Cmdliner
module A = Arc_core.Ast
module V = Arc_value.Value
module Relation = Arc_relation.Relation
module Database = Arc_relation.Database

(* ------------------------------------------------------------------ *)
(* Shared parsing helpers                                              *)
(* ------------------------------------------------------------------ *)

let die fmt = Printf.ksprintf (fun s -> raise (Failure s)) fmt

(* "R:A,B" schema syntax *)
let parse_schema s =
  match String.split_on_char ':' s with
  | [ name; attrs ] -> (String.trim name, String.split_on_char ',' (String.trim attrs))
  | _ -> die "bad schema %S (expected Name:attr1,attr2)" s

(* literal syntax shared by inline tables and batch CSVs *)
let parse_value v =
  let v = String.trim v in
  if v = "null" then V.Null
  else if String.length v >= 2 && v.[0] = '\'' then
    V.Str (String.sub v 1 (String.length v - 2))
  else
    match int_of_string_opt v with
    | Some n -> V.Int n
    | None -> (
        match float_of_string_opt v with
        | Some f -> V.Float f
        | None -> V.Str v)

(* "R(A,B)=1,10;2,20" inline table syntax *)
let parse_table s =
  match String.index_opt s '=' with
  | None -> die "bad table %S (expected R(A,B)=v,v;v,v)" s
  | Some eq ->
      let header = String.sub s 0 eq in
      let data = String.sub s (eq + 1) (String.length s - eq - 1) in
      let name, attrs =
        match String.index_opt header '(' with
        | Some l when String.length header > 0 && header.[String.length header - 1] = ')' ->
            ( String.trim (String.sub header 0 l),
              String.split_on_char ','
                (String.sub header (l + 1) (String.length header - l - 2))
              |> List.map String.trim )
        | _ -> die "bad table header %S" header
      in
      let rows =
        if String.trim data = "" then []
        else
          String.split_on_char ';' data
          |> List.map (fun row ->
                 String.split_on_char ',' row |> List.map parse_value)
      in
      (name, Relation.of_rows attrs rows)

let parse_input lang text schemas =
  match lang with
  | `Arc -> Arc_syntax.Parser.program_of_string text
  | `Sql ->
      Arc_sql.To_arc.statement ~schemas
        (Arc_sql.Parse.statement_of_string text)
  | `Trc ->
      { A.defs = []; main = A.Coll (Arc_trc.Trc.to_arc text) }
  | `Datalog ->
      let prog = Arc_datalog.Parse.program_of_string text in
      let query =
        match Arc_datalog.Ast.head_preds prog with
        | q :: _ -> q
        | [] -> die "empty datalog program"
      in
      Arc_datalog.Embed.program ~schemas prog ~query

(* ------------------------------------------------------------------ *)
(* Common args                                                         *)
(* ------------------------------------------------------------------ *)

let query_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"QUERY" ~doc:"Query text (ARC comprehension, SQL, or Datalog).")

let input_lang =
  Arg.(
    value
    & opt
        (enum
           [ ("arc", `Arc); ("sql", `Sql); ("datalog", `Datalog); ("trc", `Trc) ])
        `Arc
    & info [ "i"; "input" ] ~docv:"LANG"
        ~doc:"Input language: arc, sql, datalog, or trc (textbook notation).")

let schemas_arg =
  Arg.(
    value & opt_all string []
    & info [ "s"; "schema" ] ~docv:"SCHEMA"
        ~doc:"Base relation schema, e.g. R:A,B. Repeatable.")

let tables_arg =
  Arg.(
    value & opt_all string []
    & info [ "t"; "table" ] ~docv:"TABLE"
        ~doc:"Inline table, e.g. 'R(A,B)=1,10;2,20'. Repeatable.")

let conv_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("sql", Arc_value.Conventions.sql);
             ("sql-set", Arc_value.Conventions.sql_set);
             ("souffle", Arc_value.Conventions.souffle);
             ("classical", Arc_value.Conventions.classical);
           ])
        Arc_value.Conventions.sql_set
    & info [ "c"; "convention" ] ~docv:"CONV"
        ~doc:"Conventions: sql, sql-set, souffle, or classical.")

let wrap f = try `Ok (f ()) with
  | Failure m
  | Arc_syntax.Parser.Parse_error m
  | Arc_sql.Parse.Parse_error m
  | Arc_sql.To_arc.Unsupported m
  | Arc_sql.Of_arc.Unsupported m
  | Arc_datalog.Parse.Parse_error m
  | Arc_datalog.Embed.Embed_error m
  | Arc_trc.Trc.Parse_error m
  | Arc_trc.Trc.Normalize_error m
  | Arc_sql.Eval_sql.Sql_error m ->
      `Error (false, m)
  | Arc_engine.Eval.Eval_error e -> `Error (false, Arc_guard.Error.to_string e)
  | Arc_ivm.Ivm.Ivm_error m -> `Error (false, m)
  | Arc_relation.Database.Unknown_relation n ->
      `Error (false, Printf.sprintf "unknown relation %S" n)
  | Arc_engine.Externals.External_error { relation; cause } ->
      `Error (false, Printf.sprintf "external relation %S failed: %s" relation cause)
  | Invalid_argument m -> `Error (false, m)
  | Sys_error m -> `Error (false, m)

(* ------------------------------------------------------------------ *)
(* render                                                              *)
(* ------------------------------------------------------------------ *)

let output_fmt =
  Arg.(
    value
    & opt
        (enum
           [
             ("arc", `Arc); ("pretty", `Pretty); ("alt", `Alt);
             ("json", `Json); ("sexp", `Sexp); ("higraph", `Higraph);
             ("dot", `Dot); ("sql", `Sql); ("pattern", `Pattern);
             ("skeleton", `Skeleton);
           ])
        `Pretty
    & info [ "o"; "output" ] ~docv:"MODALITY"
        ~doc:
          "Output modality: arc, pretty, alt, json, sexp, higraph, dot, sql, \
           pattern, or skeleton.")

(* comprehension syntax, one pretty-printed block per definition *)
let pretty_program (prog : A.program) =
  String.concat "\n"
    (List.map
       (fun (d : A.definition) ->
         "def " ^ d.A.def_name ^ " := "
         ^ Arc_syntax.Printer.pretty_query (A.Coll d.A.def_body))
       prog.A.defs
    @ [ Arc_syntax.Printer.pretty_query prog.A.main ])

let render lang fmt schemas text =
  wrap (fun () ->
      let schemas = List.map parse_schema schemas in
      let prog = parse_input lang text schemas in
      let out =
        match fmt with
        | `Arc -> Arc_syntax.Printer.program prog
        | `Pretty -> pretty_program prog
        | `Alt -> Arc_alt.Alt.render (Arc_alt.Alt.link (Arc_alt.Alt.of_program prog))
        | `Json -> Arc_alt.Alt.to_json (Arc_alt.Alt.link (Arc_alt.Alt.of_program prog))
        | `Sexp -> Arc_alt.Alt.to_sexp (Arc_alt.Alt.link (Arc_alt.Alt.of_program prog))
        | `Higraph ->
            Arc_higraph.Higraph.render
              (Arc_higraph.Higraph.of_query ~defs:prog.A.defs prog.A.main)
        | `Dot ->
            Arc_higraph.Higraph.to_dot
              (Arc_higraph.Higraph.of_query ~defs:prog.A.defs prog.A.main)
        | `Sql -> Arc_sql.Print.statement (Arc_sql.Of_arc.statement ~schemas prog)
        | `Pattern -> Arc_core.Pattern.to_string (Arc_core.Pattern.of_query prog.A.main)
        | `Skeleton -> Arc_core.Canon.skeleton prog.A.main
      in
      print_endline out)

let render_cmd =
  Cmd.v
    (Cmd.info "render" ~doc:"Translate a query into any ARC modality.")
    Term.(ret (const render $ input_lang $ output_fmt $ schemas_arg $ query_arg))

(* ------------------------------------------------------------------ *)
(* validate                                                            *)
(* ------------------------------------------------------------------ *)

let validate lang schemas text =
  wrap (fun () ->
      let schemas = List.map parse_schema schemas in
      let prog = parse_input lang text schemas in
      let env =
        if schemas = [] then Arc_core.Analysis.env ()
        else Arc_core.Analysis.env ~schemas ()
      in
      (match Arc_core.Analysis.validate ~env prog with
      | Ok () -> print_endline "valid: well-scoped variables, grouping, and heads"
      | Error es ->
          List.iter
            (fun e -> print_endline ("error: " ^ Arc_core.Analysis.error_to_string e))
            es;
          exit 1);
      List.iter
        (fun (name, safety) ->
          match safety with
          | Arc_core.Analysis.Safe ->
              Printf.printf "definition %s: safe (intensional)\n" name
          | Arc_core.Analysis.Unsafe r ->
              Printf.printf "definition %s: abstract (%s)\n" name r)
        (Arc_core.Analysis.program_safety ~env prog))

let validate_cmd =
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Check scoping, grouping legality, and definition safety.")
    Term.(ret (const validate $ input_lang $ schemas_arg $ query_arg))

(* ------------------------------------------------------------------ *)
(* eval                                                                *)
(* ------------------------------------------------------------------ *)

module Sink = Arc_obs.Sink
module Metrics = Arc_obs.Metrics
module Json = Arc_obs.Json
module Ir = Arc_plan.Ir
module Explain = Arc_plan.Explain

(* Output-file convention shared by trace/analyze/metrics flags: no file
   or "-" means stdout. *)
let write_out ?label out s =
  match out with
  | None | Some "-" -> print_string s
  | Some file ->
      Out_channel.with_open_text file (fun oc -> output_string oc s);
      Option.iter (fun l -> Printf.printf "%s written to %s\n" l file) label

let write_metrics m file =
  let s =
    if Filename.check_suffix file ".json" then
      Json.pretty (Metrics.to_json m) ^ "\n"
    else Metrics.to_prometheus m
  in
  write_out ~label:"metrics" (Some file) s

let profile_flag =
  Arg.(
    value & flag
    & info [ "p"; "profile" ]
        ~doc:
          "After the results, print the plan engine's per-operator \
           invocation counts, row counts and timings (not available with \
           --engine reference).")

(* Compile a program and run it on the plan engine with per-node actuals
   on: the one record that analyze, trace and --profile render. *)
let plan_run ~conv ?guard ~db prog =
  let ctx, _raw, optimized, _report =
    Arc_engine.Exec.compile ~conv ?guard ~db prog
  in
  let stats = Ir.fresh_stats () in
  let outcome = Arc_engine.Exec.exec_program ~stats ctx optimized in
  (optimized, stats, outcome)

(* budget / governance flags *)

module Budget = Arc_guard.Budget
module Gov = Arc_guard.Gov

let timeout_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "timeout" ] ~docv:"MS"
        ~doc:"Wall-clock budget for evaluation, in milliseconds.")

let max_rows_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-rows" ] ~docv:"N"
        ~doc:"Cap on rows materialized across all collection heads.")

let max_iterations_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-iterations" ] ~docv:"N"
        ~doc:
          "Cap on fixpoint rounds per recursive stratum (default 100000).")

let max_bindings_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-bindings" ] ~docv:"N"
        ~doc:"Cap on scope binding environments enumerated.")

let max_depth_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-depth" ] ~docv:"N"
        ~doc:"Cap on collection nesting depth.")

let on_limit_arg =
  Arg.(
    value
    & opt (enum [ ("fail", `Fail); ("truncate", `Truncate) ]) `Fail
    & info [ "on-limit" ] ~docv:"POLICY"
        ~doc:
          "What to do when a budget limit trips: fail (typed error, \
           nonzero exit) or truncate (finish with a partial result and a \
           truncation report on stderr).")

let build_guard ~timeout ~max_rows ~max_iterations ~max_bindings ~max_depth
    ~on_limit =
  let budget =
    {
      Budget.default with
      Budget.max_rows;
      max_bindings;
      max_depth;
      max_iterations =
        (match max_iterations with
        | Some _ -> max_iterations
        | None -> Budget.default.Budget.max_iterations);
    }
  in
  let budget =
    match timeout with
    | Some ms -> Budget.with_timeout_ms ms budget
    | None -> budget
  in
  Gov.make ~on_limit budget

let print_guard_report gov =
  let r = Gov.report gov in
  if r.Gov.truncated then
    List.iter
      (fun (e : Gov.event) ->
        Printf.eprintf "warning: result truncated: %s limit %d reached (used %d)\n"
          (Budget.resource_to_string e.Gov.resource)
          e.Gov.limit e.Gov.used)
      r.Gov.events

let engine_arg =
  Arg.(
    value
    & opt (enum [ ("reference", `Reference); ("plan", `Plan) ]) `Plan
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Evaluation engine: plan (the default: compiled logical/physical \
           query plans with hash-based operators, see 'arc explain') or \
           reference (the paper's conceptual evaluation strategy, the \
           semantic oracle; same results).")

let eval_run lang conv engine tables profile timeout max_rows max_iterations
    max_bindings max_depth on_limit text =
  if profile && engine = `Reference then
    `Error
      ( true,
        "--profile reports the plan engine's actuals; it cannot be combined \
         with --engine reference" )
  else
    wrap (fun () ->
        let tables = List.map parse_table tables in
        let db = Database.of_list tables in
        let db = Database.analyze db in
        let schemas =
          List.map
            (fun (n, r) ->
              (n, Arc_relation.Schema.attrs (Relation.schema r)))
            tables
        in
        let guard_requested =
          timeout <> None || max_rows <> None || max_iterations <> None
          || max_bindings <> None || max_depth <> None
        in
        match lang with
        | `Sql ->
            (* SQL input runs on the direct SQL evaluator, so SQL-only
               features (ORDER BY, LIMIT) work without translation *)
            if guard_requested then
              prerr_endline
                "warning: budget flags are ignored with -i sql (the direct \
                 SQL evaluator is not governed); translate through ARC to \
                 evaluate under a budget";
            print_endline
              (Relation.to_table (Arc_sql.Eval_sql.run_string ~db text));
            if profile then
              prerr_endline
                "profile: SQL input runs on the direct SQL evaluator, which is \
                 not instrumented; use -i sql with 'arc trace' to trace the \
                 translated ARC program"
        | _ -> (
            let guard =
              build_guard ~timeout ~max_rows ~max_iterations ~max_bindings
                ~max_depth ~on_limit
            in
            let prog = parse_input lang text schemas in
            let outcome, metrics =
              match engine with
              | `Reference ->
                  (Arc_engine.Eval.run ~conv ~guard ~db prog, Metrics.create)
              | `Plan when profile ->
                  let optimized, stats, outcome =
                    plan_run ~conv ~guard ~db prog
                  in
                  ( outcome,
                    fun () ->
                      let m = Metrics.create () in
                      Arc_engine.Exec.export_stats m
                        ~cenv:(Database.stats_bindings db) optimized stats;
                      m )
              | `Plan ->
                  (Arc_engine.Exec.run ~conv ~guard ~db prog, Metrics.create)
            in
            (match outcome with
            | Arc_engine.Eval.Rows r ->
                print_endline (Relation.to_table (Relation.sort r))
            | Arc_engine.Eval.Truth t ->
                print_endline (Arc_value.Bool3.to_string t));
            print_guard_report guard;
            if profile then begin
              print_endline "\n-- profile: operator metrics --";
              print_string (Metrics.summary (metrics ()))
            end))

let eval_cmd =
  Cmd.v
    (Cmd.info "eval"
       ~doc:
         "Evaluate a query against inline tables under a convention, \
          optionally within a resource budget (wall-clock deadline, row / \
          binding / iteration / depth caps).")
    Term.(
      ret
        (const eval_run $ input_lang $ conv_arg $ engine_arg $ tables_arg
       $ profile_flag $ timeout_arg $ max_rows_arg $ max_iterations_arg
       $ max_bindings_arg $ max_depth_arg $ on_limit_arg $ query_arg))

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_fmt =
  Arg.(
    value
    & opt (enum [ ("pretty", `Pretty); ("jsonl", `Jsonl); ("chrome", `Chrome) ])
        `Pretty
    & info [ "f"; "format" ] ~docv:"FMT"
        ~doc:
          "Trace format: pretty (EXPLAIN ANALYZE-style span tree), jsonl \
           (one flat JSON span per line), or chrome (Chrome trace-event \
           JSON for chrome://tracing / Perfetto).")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write the trace to $(docv) instead of stdout ('-' is stdout).")

let trace_run lang conv fmt out tables text =
  wrap (fun () ->
      let tables = List.map parse_table tables in
      let db = Database.of_list tables in
      let schemas =
        List.map
          (fun (n, r) ->
            (n, Arc_relation.Schema.attrs (Relation.schema r)))
          tables
      in
      let prog = parse_input lang text schemas in
      let optimized, stats, outcome = plan_run ~conv ~db prog in
      let spans = Arc_engine.Exec.spans_of_stats optimized stats in
      let emit = write_out ~label:"trace" out in
      match fmt with
      | `Pretty ->
          (match outcome with
          | Arc_engine.Eval.Rows r ->
              print_endline (Relation.to_table (Relation.sort r))
          | Arc_engine.Eval.Truth t ->
              print_endline (Arc_value.Bool3.to_string t));
          print_newline ();
          emit (Sink.pretty spans)
      | `Jsonl -> emit (Sink.jsonl spans)
      | `Chrome -> emit (Sink.chrome spans))

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Evaluate a query and print an EXPLAIN ANALYZE-style span tree \
          (or machine-readable JSONL / Chrome trace) of the plan engine: \
          one span per plan node and fixpoint round. SQL input is \
          translated to ARC.")
    Term.(
      ret
        (const trace_run $ input_lang $ conv_arg $ trace_fmt
       $ trace_out $ tables_arg $ query_arg))

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let no_opt_flag =
  Arg.(
    value & flag
    & info [ "no-opt" ]
        ~doc:
          "Print only the raw lowered logical plan, skipping the rewrite \
           pipeline.")

let explain_run lang conv tables schemas no_opt text =
  wrap (fun () ->
      let tables = List.map parse_table tables in
      let db = Database.of_list tables in
      let db = Database.analyze db in
      let schemas =
        List.map parse_schema schemas
        @ List.map
            (fun (n, r) ->
              (n, Arc_relation.Schema.attrs (Relation.schema r)))
            tables
      in
      let prog = parse_input lang text schemas in
      let _ctx, raw, optimized, report =
        Arc_engine.Exec.compile ~conv ~db prog
      in
      let cenv = Database.stats_bindings db in
      if no_opt then
        print_string (Arc_plan.Explain.program_plan_to_string ~cenv raw)
      else begin
        print_endline "-- logical plan (lowered) --";
        print_string (Arc_plan.Explain.program_plan_to_string ~cenv raw);
        print_newline ();
        print_endline "-- physical plan (after rewrites) --";
        print_string (Arc_plan.Explain.program_plan_to_string ~cenv optimized);
        print_newline ();
        let decorrelated, sites =
          Arc_engine.Exec.decorrelation ~conv ~db prog
        in
        if List.exists Arc_plan.Decorrelate.fired sites then begin
          print_endline "-- decorrelated query --";
          print_endline (pretty_program decorrelated);
          print_newline ()
        end;
        List.iter
          (fun s ->
            if not (Arc_plan.Decorrelate.fired s) then
              print_endline (Arc_plan.Decorrelate.site_to_string s))
          sites;
        print_endline (Arc_plan.Explain.report_to_string report)
      end)

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Compile a query to the plan engine's logical plan, show the plan \
          before and after the optimizer rewrite pipeline \
          (magic-sets, decorrelate-aggregates, predicate-pushdown, \
          decorrelate-exists, hash-join-order, prune-columns), and report \
          which passes changed the plan. When correlated γ∅ aggregates are \
          unnested, print the rewritten query; print why any other such \
          aggregate keeps its lateral. Tables \
          (-t) provide cardinality estimates; schemas (-s) suffice for \
          shape-only explanation.")
    Term.(
      ret
        (const explain_run $ input_lang $ conv_arg $ tables_arg $ schemas_arg
       $ no_opt_flag $ query_arg))

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

let warn_q_arg =
  Arg.(
    value & opt float 4.0
    & info [ "warn-q-error" ] ~docv:"Q"
        ~doc:
          "Flag nodes whose Q-error — max(est,act)/min(est,act), both \
           clamped to at least 1 — reaches $(docv). These are the \
           misestimates that can drive a bad join order.")

let analyze_fmt =
  Arg.(
    value
    & opt (enum [ ("pretty", `Pretty); ("json", `Json) ]) `Pretty
    & info [ "f"; "format" ] ~docv:"FMT"
        ~doc:
          "Output format: pretty (annotated plan tree) or json (flat \
           per-node records).")

let analyze_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:
          "Write the analysis to $(docv) instead of stdout ('-' is \
           stdout).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Export the run's metrics registry to $(docv): Prometheus text \
           format, or the JSON exposition when $(docv) ends in .json. '-' \
           writes to stdout.")

let analyze_json infos =
  Json.List
    (List.map
       (fun (ni : Explain.node_info) ->
         let base =
           [
             ("id", Json.Int ni.Explain.ni_id);
             ("def", Json.Str ni.Explain.ni_def);
             ("op", Json.Str ni.Explain.ni_op);
             ("label", Json.Str ni.Explain.ni_label);
             ("est_rows", Json.Int ni.Explain.ni_est);
             ("est_src", Json.Str ni.Explain.ni_src);
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
                 ("incl_ns", Json.Int (Int64.to_int a.Ir.a_incl_ns));
                 ("excl_ns", Json.Int (Int64.to_int ni.Explain.ni_excl_ns));
               ]
               @ (match ni.Explain.ni_q with
                 | Some q -> [ ("q_error", Json.Float q) ]
                 | None -> [])
               @ (if a.Ir.a_build > 0 || a.Ir.a_probe > 0 then
                    [
                      ("build", Json.Int a.Ir.a_build);
                      ("probe", Json.Int a.Ir.a_probe);
                      ("matches", Json.Int a.Ir.a_matches);
                    ]
                  else [])
               @
               if a.Ir.a_iterations > 0 then
                 [
                   ("iterations", Json.Int a.Ir.a_iterations);
                   ( "deltas",
                     Json.List
                       (List.rev_map (fun d -> Json.Int d) a.Ir.a_deltas) );
                   ("fix_ns", Json.Int (Int64.to_int a.Ir.a_fix_ns));
                 ]
               else []
         in
         Json.Obj (base @ actual))
       infos)

let analyze_run lang conv tables warn_q fmt out metrics_out text =
  wrap (fun () ->
      let tables = List.map parse_table tables in
      let db = Database.of_list tables in
      let db = Database.analyze db in
      let schemas =
        List.map
          (fun (n, r) ->
            (n, Arc_relation.Schema.attrs (Relation.schema r)))
          tables
      in
      let prog = parse_input lang text schemas in
      let optimized, stats, outcome = plan_run ~conv ~db prog in
      let cenv = Database.stats_bindings db in
      (match fmt with
      | `Pretty ->
          (match outcome with
          | Arc_engine.Eval.Rows r ->
              print_endline (Relation.to_table (Relation.sort r))
          | Arc_engine.Eval.Truth t ->
              print_endline (Arc_value.Bool3.to_string t));
          print_newline ();
          write_out ~label:"analysis" out
            (Explain.analyze_to_string ~warn_q_error:warn_q ~cenv ~stats
               optimized)
      | `Json ->
          write_out ~label:"analysis" out
            (Json.pretty
               (analyze_json (Explain.analyze_info ~cenv optimized ~stats))
            ^ "\n"));
      Option.iter
        (fun file ->
          let m = Metrics.create () in
          Arc_engine.Exec.export_stats m ~cenv optimized stats;
          write_metrics m file)
        metrics_out)

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "EXPLAIN ANALYZE for the plan engine: compile and execute a query \
          with per-node statistics on, then print the physical plan tree \
          annotated with estimated vs actual rows, Q-error, exclusive time \
          per node, hash-join build/probe/match counts, and fixpoint \
          iteration deltas. Nodes whose Q-error reaches --warn-q-error are \
          flagged — those misestimates are what the join-order heuristic \
          acted on. --metrics-out additionally exports operator-level \
          metrics (Prometheus text or JSON).")
    Term.(
      ret
        (const analyze_run $ input_lang $ conv_arg $ tables_arg $ warn_q_arg
       $ analyze_fmt $ analyze_out $ metrics_out_arg $ query_arg))

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

let only_arg =
  Arg.(
    value & opt_all string []
    & info [ "only" ] ~docv:"REL"
        ~doc:"Collect statistics only for relation $(docv) (repeatable).")

let stats_run tables only =
  wrap (fun () ->
      let tables = List.map parse_table tables in
      if tables = [] then die "no tables given (-t)";
      let db = Database.of_list tables in
      let only = match only with [] -> None | l -> Some l in
      let db = Database.analyze ?only db in
      List.iter
        (fun (n, s) -> print_string (Arc_relation.Stats.to_string ~name:n s))
        (Database.stats_bindings db))

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "ANALYZE inline tables and print the collected per-column \
          statistics: row count, distinct count, null count, min/max \
          range, most-common values, and equi-depth histogram buckets — \
          the input to the plan engine's cost model. 'arc \
          eval/explain/analyze' collect the same statistics implicitly.")
    Term.(ret (const stats_run $ tables_arg $ only_arg))

(* ------------------------------------------------------------------ *)
(* fragment                                                            *)
(* ------------------------------------------------------------------ *)

let fragment lang schemas text =
  wrap (fun () ->
      let schemas = List.map parse_schema schemas in
      let prog = parse_input lang text schemas in
      let module F = Arc_core.Fragment in
      Printf.printf "fragment: %s\n" (F.name prog.A.main);
      if prog.A.defs <> [] then
        Printf.printf "recursion: %b\n" (F.uses_recursion prog);
      let f = F.features_program prog in
      let flags =
        [
          ("aggregation", f.F.uses_aggregation);
          ("grouping", f.F.uses_grouping);
          ("negation", f.F.uses_negation);
          ("disjunction", f.F.uses_disjunction);
          ("join annotations", f.F.uses_join_annotations);
          ("nested collections", f.F.uses_nested_collections);
          ("arithmetic", f.F.uses_arithmetic);
          ("order comparisons", f.F.uses_order_comparisons);
          ("null predicates", f.F.uses_null_predicates);
          ("like", f.F.uses_like);
        ]
      in
      List.iter (fun (n, b) -> Printf.printf "  %-20s %b\n" n b) flags;
      Printf.printf "pattern: %s\n"
        (Arc_core.Pattern.to_string (Arc_core.Pattern.of_query prog.A.main)))

let fragment_cmd =
  Cmd.v
    (Cmd.info "fragment"
       ~doc:"Classify a query's language fragment and pattern signature.")
    Term.(ret (const fragment $ input_lang $ schemas_arg $ query_arg))

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let gold_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"GOLD" ~doc:"Gold (reference) SQL query.")

let cand_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"CANDIDATE" ~doc:"Candidate SQL query.")

let compare_q schemas gold candidate =
  wrap (fun () ->
      let schemas = List.map parse_schema schemas in
      let r = Arc_intent.Intent.compare_sql ~schemas ~gold ~candidate () in
      print_endline (Arc_intent.Intent.report_to_string r))

let compare_cmd =
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Intent-based comparison of two SQL queries (NL2SQL validation).")
    Term.(ret (const compare_q $ schemas_arg $ gold_arg $ cand_arg))

(* ------------------------------------------------------------------ *)
(* catalog                                                             *)
(* ------------------------------------------------------------------ *)

let catalog_id =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"ID" ~doc:"Experiment id (omit to list all).")

let show_artifacts =
  Arg.(value & flag & info [ "a"; "artifacts" ] ~doc:"Print the artifacts too.")

let markdown_flag =
  Arg.(
    value & flag
    & info [ "markdown" ]
        ~doc:"Emit the whole catalog as a paper-vs-measured markdown report.")

let catalog_markdown () =
  print_endline "# EXPERIMENTS — paper vs measured";
  print_endline "";
  print_endline
    "Regenerate with `dune exec bin/arc.exe -- catalog --markdown`, or watch \
     the same\nchecks run inside `dune exec bench/main.exe` (Part 1) and \
     `dune runtest`\n(suite `arc_catalog`). Every row is produced by \
     executing the experiment, not\nby hand.";
  print_endline "";
  print_endline
    "Each bench run also writes machine-readable per-experiment wall-times \
     and\nper-plan-node actuals to `BENCH.run.json`, one record per \
     measurement, and\nchecks them against the committed baseline \
     `BENCH.json`; traces of individual\nruns are available via `arc trace` \
     — see\n[docs/observability.md](docs/observability.md).";
  print_endline "";
  print_endline "## Guarded runs";
  print_endline "";
  print_endline
    "Any experiment can be re-run under a resource budget — see\n\
     [docs/robustness.md](docs/robustness.md). A divergent recursive \
     program\n(counting up through the `\"Add\"` external) demonstrates the \
     two policies:";
  print_endline "";
  print_endline "```";
  print_endline
    "arc eval -t \"S(v)=0\" --timeout 200 --on-limit fail \\";
  print_endline
    "  'def N := {N(x) | exists s in S[N.x = s.v] or exists n in N, f in \
     \"Add\"";
  print_endline
    "  [f.left = n.x and f.right = 1 and N.x = f.out]} {Q(x) | exists n in \
     N[Q.x = n.x]}'";
  print_endline
    "# => arc: budget exceeded: wall-clock deadline (limit 200ms, used \
     200ms)   (exit != 0)";
  print_endline "";
  print_endline "arc eval -t \"S(v)=0\" --max-iterations 5 --on-limit truncate '…same query…'";
  print_endline
    "# => the first 6 values of N, plus on stderr:";
  print_endline
    "# warning: result truncated: fixpoint iterations limit 5 reached (used \
     6)";
  print_endline "```";
  print_endline "";
  print_endline
    "`arc chaos` smoke-tests the fault-injection harness (retry \
     transparency,\ntyped exhaustion, latency injection); the \
     guarded-vs-unguarded timing\nablation is Part 6 of `dune exec \
     bench/main.exe`\n(its rows in `BENCH.json`).";
  print_endline "";
  print_endline "## Engine ablation: reference evaluator vs compiled plans";
  print_endline "";
  print_endline
    "Every query here can also run on the plan engine (`arc eval --engine \
     plan`),\nwhich compiles ARC cores to hash-join/hash-aggregate physical \
     plans — see\n[docs/planner.md](docs/planner.md) and `arc explain`. \
     Part 7 of `dune exec\nbench/main.exe` checks bag-equality of the two \
     engines on its workloads and\ntimes them; the recorded times are the \
     `reference` and `plan` rows of\n`BENCH.json` (Part 7).";
  List.iter
    (fun (e : Arc_catalog.Catalog.entry) ->
      Printf.printf "\n## %s — %s\n\n*Paper:* %s\n\n"
        e.Arc_catalog.Catalog.id e.Arc_catalog.Catalog.title
        e.Arc_catalog.Catalog.paper_ref;
      print_endline "| paper-reported behavior | expected | measured | ok |";
      print_endline "|---|---|---|---|";
      List.iter
        (fun (o : Arc_catalog.Catalog.outcome) ->
          Printf.printf "| %s | `%s` | `%s` | %s |\n"
            o.Arc_catalog.Catalog.label o.Arc_catalog.Catalog.expected
            o.Arc_catalog.Catalog.measured
            (if o.Arc_catalog.Catalog.ok then "yes" else "**NO**"))
        (e.Arc_catalog.Catalog.run ()))
    Arc_catalog.Catalog.all

let catalog id artifacts markdown =
  if markdown then wrap catalog_markdown
  else
  wrap (fun () ->
      match id with
      | None ->
          List.iter
            (fun (e : Arc_catalog.Catalog.entry) ->
              Printf.printf "%-20s %-12s %s\n" e.Arc_catalog.Catalog.id
                ("(" ^ e.Arc_catalog.Catalog.paper_ref ^ ")")
                e.Arc_catalog.Catalog.title)
            Arc_catalog.Catalog.all
      | Some id -> (
          match Arc_catalog.Catalog.by_id id with
          | None -> die "no experiment %S (try 'arc catalog' to list)" id
          | Some e ->
              Printf.printf "%s — %s\n(%s)\n\n" e.Arc_catalog.Catalog.id
                e.Arc_catalog.Catalog.title e.Arc_catalog.Catalog.paper_ref;
              List.iter
                (fun o ->
                  print_endline
                    ("  " ^ Arc_catalog.Catalog.outcome_to_string o))
                (e.Arc_catalog.Catalog.run ());
              if artifacts then
                List.iter
                  (fun (name, body) ->
                    Printf.printf "\n--- %s ---\n%s\n" name body)
                  (e.Arc_catalog.Catalog.artifacts ())))

let catalog_cmd =
  Cmd.v
    (Cmd.info "catalog"
       ~doc:"Browse and re-run the paper's experiment catalog.")
    Term.(ret (const catalog $ catalog_id $ show_artifacts $ markdown_flag))

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

let chaos_seed =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Seed for the fault-injection RNG (probabilistic faults).")

let chaos_run seed metrics_out =
  wrap (fun () ->
      let module E = Arc_engine.Externals in
      let module C = Arc_engine.Chaos in
      let db =
        Database.of_list
          [
            ( "R",
              Relation.of_rows [ "a" ]
                [ [ V.Int 1 ]; [ V.Int 2 ]; [ V.Int 3 ] ] );
          ]
      in
      let prog =
        Arc_syntax.Parser.program_of_string
          "{Q(s) | exists r in R, f in \"Add\"[f.left = r.a and f.right = 1 \
           and Q.s = f.out]}"
      in
      let run externals =
        match Arc_engine.Eval.run ~externals ~db prog with
        | Arc_engine.Eval.Rows r -> Relation.sort r
        | Arc_engine.Eval.Truth _ -> die "chaos: expected a collection result"
      in
      let clean = run E.standard in
      (* fail-once faults must be absorbed by the retry combinator *)
      let st = C.stats () in
      let impls =
        List.map
          (fun i -> E.with_retry (C.wrap ~seed ~stats:st C.Fail_once i))
          E.standard
      in
      if not (Relation.equal_set (run impls) clean) then
        die "chaos: fail-once + retry differs from the clean run";
      Printf.printf
        "fail-once + retry: transparent (%d calls, %d injected failures)\n"
        st.C.calls st.C.failures;
      (* a fail-always external must exhaust retries into a typed error *)
      let impls =
        List.map
          (fun i -> E.with_retry ~attempts:3 (C.wrap ~seed (C.Fail_every 1) i))
          E.standard
      in
      (match run impls with
      | _ -> die "chaos: fail-always external unexpectedly succeeded"
      | exception Arc_engine.Eval.Eval_error e -> (
          match e.Arc_guard.Error.kind with
          | Arc_guard.Error.External_failure { attempts = 3; _ } ->
              Printf.printf "fail-always + retry: %s\n"
                (Arc_guard.Error.to_string e)
          | _ ->
              die "chaos: expected External_failure after 3 attempts, got: %s"
                (Arc_guard.Error.to_string e)));
      (* latency injection goes through the injectable sleep, results
         unchanged *)
      let slept = ref 0 in
      let impls =
        C.wrap_all
          ~sleep:(fun ns -> slept := !slept + ns)
          (C.Latency 5_000_000) E.standard
      in
      if not (Relation.equal_set (run impls) clean) then
        die "chaos: latency run differs from the clean run";
      Printf.printf
        "latency injection: %d ns injected via sleep hook, results unchanged\n"
        !slept;
      print_endline "chaos smoke: all scenarios passed";
      Option.iter
        (fun file ->
          let m = Metrics.create () in
          let labels = [ ("scenario", "fail_once") ] in
          Metrics.inc m ~labels ~by:st.C.calls "arc_chaos_calls_total";
          Metrics.inc m ~labels ~by:st.C.failures
            "arc_chaos_injected_failures_total";
          Metrics.inc m ~by:!slept "arc_chaos_injected_latency_ns_total";
          write_metrics m file)
        metrics_out)

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the fault-injection smoke scenarios: a fail-once external \
          must be absorbed by retry, a fail-always external must surface \
          as a typed failure after exhausting retries, and injected \
          latency must not change results. Exits nonzero if any scenario \
          misbehaves. With --metrics-out, exports the campaign counters \
          (calls, injected failures, injected latency) as metrics.")
    Term.(ret (const chaos_run $ chaos_seed $ metrics_out_arg))

(* ------------------------------------------------------------------ *)
(* ivm                                                                 *)
(* ------------------------------------------------------------------ *)

module Ivm = Arc_ivm.Ivm

let views_arg =
  Arg.(
    value & opt_all string []
    & info [ "view" ] ~docv:"NAME=QUERY"
        ~doc:
          "Register a maintained view: a name, '=', and an ARC program \
           (definitions allowed). Repeatable.")

let batches_arg =
  Arg.(
    value & opt_all string []
    & info [ "batch" ] ~docv:"FILE"
        ~doc:
          "Apply a batch of signed updates, in order. CSV lines are \
           'relation,multiplicity,v1,v2,...' (negative multiplicity \
           deletes); with a .jsonl extension each line is \
           '{\"rel\": \"R\", \"n\": -1, \"row\": [1, 10]}' ('n' defaults \
           to 1). Repeatable.")

let ivm_check_flag =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "After each batch, re-evaluate every view from scratch and fail \
           (exit 1) unless the maintained results are bag-equal — the \
           differential oracle.")

let batch_row db rel vs =
  match Database.find_opt db rel with
  | None -> die "batch references unknown relation %S" rel
  | Some r ->
      Arc_relation.Tuple.make (Relation.schema r) (Array.of_list vs)

let parse_batch_csv db text : Ivm.batch =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then None
      else
        match String.split_on_char ',' line with
        | rel :: mult :: vs -> (
            match int_of_string_opt (String.trim mult) with
            | None -> die "bad batch line %S (multiplicity not an int)" line
            | Some n ->
                Some
                  ( String.trim rel,
                    [ (batch_row db (String.trim rel) (List.map parse_value vs), n) ]
                  ))
        | _ -> die "bad batch line %S (expected rel,mult,v1,...)" line)
    (String.split_on_char '\n' text)

let parse_batch_jsonl db text : Ivm.batch =
  let value_of_json = function
    | Json.Null -> V.Null
    | Json.Bool b -> V.Bool b
    | Json.Int n -> V.Int n
    | Json.Float f -> V.Float f
    | Json.Str s -> V.Str s
    | j -> die "bad batch value %s" (Json.to_string j)
  in
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if line = "" then None
      else
        match Json.parse line with
        | Error m -> die "bad batch line %S: %s" line m
        | Ok j ->
            let rel =
              match Json.member "rel" j with
              | Some (Json.Str r) -> r
              | _ -> die "batch line %S lacks a \"rel\" field" line
            in
            let n =
              match Json.member "n" j with
              | Some (Json.Int n) -> n
              | None -> 1
              | Some _ -> die "batch line %S: \"n\" must be an int" line
            in
            let vs =
              match Json.member "row" j with
              | Some (Json.List vs) -> List.map value_of_json vs
              | _ -> die "batch line %S lacks a \"row\" array" line
            in
            Some (rel, [ (batch_row db rel vs, n) ]))
    (String.split_on_char '\n' text)

let parse_batch_file db file : Ivm.batch =
  let text = In_channel.with_open_text file In_channel.input_all in
  if Filename.check_suffix file ".jsonl" then parse_batch_jsonl db text
  else parse_batch_csv db text

let parse_view s =
  match String.index_opt s '=' with
  | Some k when k > 0 ->
      ( String.trim (String.sub s 0 k),
        Arc_syntax.Parser.program_of_string
          (String.sub s (k + 1) (String.length s - k - 1)) )
  | _ -> die "bad view %S (expected NAME={Q(...) | ...})" s

let ivm_run conv tables views batches check timeout max_rows max_iterations
    max_bindings max_depth on_limit metrics_out =
  wrap (fun () ->
      if views = [] then die "no views; pass --view NAME=QUERY at least once";
      let db = Database.of_list (List.map parse_table tables) in
      let m = Metrics.create () in
      let ivm = Ivm.create ~conv ~metrics:m ~db () in
      List.iter
        (fun vs ->
          let name, prog = parse_view vs in
          Ivm.register ivm ~name prog)
        views;
      Printf.printf "registered %d view(s); maintenance state holds %d rows\n"
        (List.length (Ivm.views ivm))
        (Ivm.state_rows ivm);
      List.iteri
        (fun bi file ->
          let batch = parse_batch_file (Ivm.db ivm) file in
          let guard =
            build_guard ~timeout ~max_rows ~max_iterations ~max_bindings
              ~max_depth ~on_limit
          in
          let reports = Ivm.apply ~guard ivm batch in
          Printf.printf "batch %d (%s): %d row(s) over %d relation(s)\n"
            (bi + 1) file (Ivm.batch_rows batch) (List.length batch);
          List.iter
            (fun (r : Ivm.view_report) ->
              Printf.printf "  %-16s %-11s |output delta|=%-5d %s%.3f ms\n"
                r.Ivm.vr_view r.Ivm.vr_mode r.Ivm.vr_out_delta
                (if r.Ivm.vr_fallbacks > 0 then
                   Printf.sprintf "fallbacks=%d " r.Ivm.vr_fallbacks
                 else "")
                (Int64.to_float r.Ivm.vr_ns /. 1e6))
            reports;
          print_guard_report guard;
          if check then
            match Ivm.check ivm with
            | [] -> Printf.printf "  check: ok (views bag-equal to re-evaluation)\n"
            | mismatches ->
                List.iter
                  (fun (v, maintained, fresh) ->
                    Printf.eprintf
                      "check FAILED for %s:\nmaintained:\n%sfresh:\n%s" v
                      (Relation.to_table maintained)
                      (Relation.to_table fresh))
                  mismatches;
                die "differential check failed after batch %d" (bi + 1))
        batches;
      List.iter
        (fun name ->
          Printf.printf "-- %s --\n%s" name
            (Relation.to_table (Ivm.result ivm name)))
        (Ivm.views ivm);
      Option.iter (write_metrics m) metrics_out)

let ivm_cmd =
  Cmd.v
    (Cmd.info "ivm"
       ~doc:
         "Incremental view maintenance: register views over inline tables, \
          apply signed update batches (CSV or JSONL), and keep the view \
          results up to date by delta propagation — counting for \
          non-recursive plans, over-delete/re-derive (DRed) for recursive \
          strata, counted fallback re-evaluation otherwise. With --check, \
          every batch is verified against from-scratch re-evaluation. See \
          docs/ivm.md.")
    Term.(
      ret
        (const ivm_run $ conv_arg $ tables_arg $ views_arg $ batches_arg
       $ ivm_check_flag $ timeout_arg $ max_rows_arg $ max_iterations_arg
       $ max_bindings_arg $ max_depth_arg $ on_limit_arg $ metrics_out_arg))

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let fuzz_seed =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Campaign seed. The same (seed, count) pair replays the same \
           cases exactly.")

let fuzz_count =
  Arg.(
    value & opt int 200
    & info [ "count" ] ~docv:"N" ~doc:"Number of fuzz iterations to run.")

let fuzz_shrink =
  Arg.(
    value & opt bool true
    & info [ "shrink" ] ~docv:"BOOL"
        ~doc:
          "Greedily shrink each divergent case (preserving its divergence \
           kind) before saving the repro.")

let fuzz_ivm =
  Arg.(
    value & flag
    & info [ "ivm" ]
        ~doc:
          "IVM mode: instead of the cross-engine oracles, register each \
           generated case as a maintained view under every convention \
           combo, apply random signed batches derived from the seed, and \
           assert the incrementally maintained result stays bag-equal to \
           from-scratch re-evaluation after every batch.")

let fuzz_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR"
        ~doc:
          "Write each divergent case as a replayable repro directory \
           (query.arc + per-relation CSVs + meta.txt) under $(docv), \
           created if missing.")

let rec mkdirs d =
  if not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let fuzz_run seed count shrink ivm out metrics_out =
  wrap (fun () ->
      Option.iter mkdirs out;
      let stats, findings =
        Arc_fuzz.Driver.run ~shrink ~ivm ?out ~seed ~count ()
      in
      List.iter
        (fun (f : Arc_fuzz.Driver.finding) ->
          Printf.printf "DIVERGENCE %s\n" f.Arc_fuzz.Driver.f_name;
          List.iter
            (fun d ->
              Printf.printf "  %s\n" (Arc_fuzz.Oracle.divergence_to_string d))
            f.Arc_fuzz.Driver.f_divergences;
          Option.iter
            (fun p -> Printf.printf "  repro: %s\n" p)
            f.Arc_fuzz.Driver.f_repro)
        findings;
      let { Arc_fuzz.Driver.generated; skipped; diverged } = stats in
      Printf.printf "fuzz: %d cases generated, %d skipped, %d diverged (seed %d)\n"
        generated skipped diverged seed;
      Option.iter
        (fun file ->
          let m = Metrics.create () in
          Metrics.inc m ~by:generated "arc_fuzz_generated_total";
          Metrics.inc m ~by:skipped "arc_fuzz_skipped_total";
          Metrics.inc m ~by:diverged "arc_fuzz_diverged_total";
          Metrics.set_gauge m "arc_fuzz_seed" (Float.of_int seed);
          write_metrics m file)
        metrics_out;
      if diverged > 0 then exit 1)

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate random validated ARC cores and \
          NULL-bearing databases, run them through the reference evaluator \
          and the plan engine under every convention combination, \
          round-trip them through the SQL / Datalog / \
          TRC frontends where the fragment permits, and greedily shrink any \
          divergence into a replayable repro directory. Exits nonzero if \
          any divergence was found. See docs/fuzzing.md. With \
          --metrics-out, exports the campaign counters as metrics.")
    Term.(
      ret
        (const fuzz_run $ fuzz_seed $ fuzz_count $ fuzz_shrink $ fuzz_ivm
       $ fuzz_out $ metrics_out_arg))

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

let main_cmd =
  Cmd.group
    (Cmd.info "arc" ~version:"1.0.0"
       ~doc:
         "Abstract Relational Calculus: a semantics-first reference \
          metalanguage for relational queries.")
    [
      render_cmd; validate_cmd; eval_cmd; explain_cmd; analyze_cmd; stats_cmd;
      trace_cmd;
      fragment_cmd; compare_cmd; catalog_cmd; chaos_cmd; fuzz_cmd; ivm_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
