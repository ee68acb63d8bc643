(* Plan library tests: lowering shapes (via the explain renderer), each
   optimizer rewrite pass preserving results, hash-key NULL semantics under
   both null logics, plan-level seminaive fixpoints, governor integration,
   the span rendering of per-node actuals, and the join-annotation
   fallback. *)

open Arc_core.Ast
open Arc_core.Build
module V = Arc_value.Value
module Conventions = Arc_value.Conventions
module Relation = Arc_relation.Relation
module Tuple = Arc_relation.Tuple
module Database = Arc_relation.Database
module Eval = Arc_engine.Eval
module Exec = Arc_engine.Exec
module Lower = Arc_plan.Lower
module Opt = Arc_plan.Opt
module Explain = Arc_plan.Explain
module Ir = Arc_plan.Ir
module Obs = Arc_obs.Obs
module Gov = Arc_guard.Gov
module Budget = Arc_guard.Budget
module Data = Arc_catalog.Data

let program ?(defs = []) main = { defs; main }

let bag r = List.sort compare (List.map Tuple.key (Relation.tuples r))

let check_same_bag msg r1 r2 =
  Alcotest.(check (list string)) msg (bag r1) (bag r2)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* a two-relation equi-join with a pushable constant filter *)
let join_query =
  collection "Q" [ "A"; "C" ]
    (exists [ bind "r" "R"; bind "s" "S" ]
       (conj
          [
            eq (attr "r" "B") (attr "s" "B");
            eq (attr "Q" "A") (attr "r" "A");
            eq (attr "Q" "C") (attr "s" "C");
          ]))

let explain_of ?passes ~db q =
  let env = Lower.env_of_db ~db ~defs:[] in
  let raw = Lower.lower_collection env q in
  let opt, report =
    match passes with
    | None -> Opt.optimize_coll env raw
    | Some ps -> Opt.optimize_coll ~passes:ps env raw
  in
  (Explain.coll_plan_to_string raw, Explain.coll_plan_to_string opt, report)

(* ---------------------------------------------------------------- *)

let lowering_shape () =
  let raw, opt, report = explain_of ~db:Data.db_rs join_query in
  Alcotest.(check bool) "raw plan enumerates a product" true
    (contains raw "scan R as r" && contains raw "scan S as s");
  Alcotest.(check bool) "optimized plan uses a hash join" true
    (contains opt "hash join on");
  Alcotest.(check bool) "reorder pass reported as applied" true
    (List.assoc "hash-join-order" report);
  Alcotest.(check bool) "no residual product left" false
    (contains opt "product")

let no_fallback_shape () =
  (* eq18 carries an explicit join-tree annotation; the RANF-style
     translation lowers it to an append of matched/null-padded branches
     instead of the reference-evaluator fallback *)
  let raw, opt, _ = explain_of ~db:Data.db_outer Data.eq18 in
  Alcotest.(check bool) "eq18 lowers without a fallback" false
    (contains raw "reference evaluator");
  Alcotest.(check bool) "eq18 lowers to an append of branches" true
    (contains raw "append");
  Alcotest.(check bool) "optimized eq18 stays fallback-free" false
    (contains opt "reference evaluator");
  (* and no catalog query reaches the fallback node at all *)
  let db_xy =
    Database.of_list
      [
        ("X", Relation.of_rows [ "A" ] [ [ V.Int 1 ]; [ V.Int 5 ] ]);
        ("Y", Relation.of_rows [ "A" ] [ [ V.Int 2 ]; [ V.Int 6 ] ]);
      ]
  in
  let db_sec27 =
    Database.of_list
      [
        ("R", Relation.of_rows [ "A"; "B" ] [ [ V.Int 1; V.Int 7 ] ]);
        ("S", Relation.of_rows [ "B" ] [ [ V.Int 7 ]; [ V.Int 7 ] ]);
      ]
  in
  let cases =
    [
      ("eq1", Data.db_rs, [], Coll Data.eq1);
      ("eq2", db_xy, [], Coll Data.eq2);
      ("eq3", Data.db_grouping, [], Coll Data.eq3);
      ("eq7", Data.db_grouping, [], Coll Data.eq7);
      ("eq8", Data.db_payroll, [], Coll Data.eq8);
      ("eq10", Data.db_payroll, [], Coll Data.eq10);
      ("eq12", Data.db_payroll, [], Coll Data.eq12);
      ("eq15", Data.db_souffle, [], Coll Data.eq15);
      ("eq16", Data.db_parent, Data.eq16_defs, Coll Data.eq16_main);
      ("eq17", Data.db_nulls, [], Coll Data.eq17);
      ("eq17-plain", Data.db_nulls, [], Coll Data.eq17_plain_not_exists);
      ("eq18", Data.db_outer, [], Coll Data.eq18);
      ("fig13-lateral", Data.db_fig13, [], Coll Data.fig13_lateral);
      ("fig13-leftjoin", Data.db_fig13, [], Coll Data.fig13_leftjoin);
      ("eq19", Data.db_external, [], Coll Data.eq19);
      ("eq20", Data.db_external, [], Coll Data.eq20);
      ("eq21", Data.db_external, [], Coll Data.eq21);
      ("eq22", Data.db_beers, [], Coll Data.eq22);
      ("eq24", Data.db_beers, [ Data.eq23_subset ], Coll Data.eq24);
      ("eq26", Data.db_matrices, [], Coll Data.eq26);
      ("eq26-external", Data.db_matrices, [], Coll Data.eq26_external);
      ("eq27", Data.db_countbug, [], Coll Data.eq27);
      ("eq28", Data.db_countbug, [], Coll Data.eq28);
      ("eq29", Data.db_countbug, [], Coll Data.eq29);
      ("sec27-nested", db_sec27, [], Coll Data.sec27_nested);
      ("sec27-unnested", db_sec27, [], Coll Data.sec27_unnested);
    ]
  in
  List.iter
    (fun (name, db, defs, main) ->
      let _, _, plan, _ = Exec.compile ~db { defs; main } in
      let s = Explain.program_plan_to_string plan in
      Alcotest.(check bool) (name ^ " compiles without fallback") false
        (contains s "reference evaluator"))
    cases

let semi_shape () =
  let q =
    collection "Q" [ "A" ]
      (exists [ bind "r" "R" ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              not_
                (exists [ bind "s" "S" ]
                   (eq (attr "s" "B") (attr "r" "B")));
            ]))
  in
  let _, opt, report = explain_of ~db:Data.db_rs q in
  Alcotest.(check bool) "negated exists becomes a hash anti join" true
    (contains opt "hash anti join");
  Alcotest.(check bool) "decorrelate pass reported" true
    (List.assoc "decorrelate-exists" report)

(* every prefix of the pass pipeline preserves results on a fixed corpus *)
let passes_preserve () =
  let cases =
    [
      ("join", Data.db_rs, join_query);
      ("grouping", Data.db_grouping, Data.eq3);
      ("payroll", Data.db_payroll, Data.eq8);
      ("countbug", Data.db_countbug, Data.eq27);
      ("division", Data.db_beers, Data.eq22);
    ]
  in
  List.iter
    (fun (name, db, q) ->
      let env = Lower.env_of_db ~db ~defs:[] in
      let raw = Lower.lower_collection env q in
      let prog = program (Coll q) in
      let reference = Eval.run_rows ~db prog in
      let rec prefixes acc = function
        | [] -> [ List.rev acc ]
        | p :: rest -> List.rev acc :: prefixes (p :: acc) rest
      in
      List.iter
        (fun passes ->
          let opt, _ = Opt.optimize_coll ~passes env raw in
          let ctx, _ = Eval.Internal.prepare ~db prog in
          match
            Exec.exec_program ctx
              { Arc_plan.Ir.strata = []; main = Arc_plan.Ir.Main_coll opt }
          with
          | Eval.Rows r ->
              check_same_bag
                (Printf.sprintf "%s with %d passes" name (List.length passes))
                reference r
          | Eval.Truth _ -> Alcotest.fail "expected rows")
        (prefixes [] Opt.pipeline))
    cases

let null_key_semantics () =
  let db =
    Database.of_list
      [
        ("R", Relation.of_rows [ "A" ] [ [ V.Int 1 ]; [ V.Null ] ]);
        ("S", Relation.of_rows [ "A" ] [ [ V.Int 1 ]; [ V.Null ] ]);
      ]
  in
  let q =
    collection "Q" [ "A" ]
      (exists [ bind "r" "R"; bind "s" "S" ]
         (conj
            [
              eq (attr "r" "A") (attr "s" "A");
              eq (attr "Q" "A") (attr "r" "A");
            ]))
  in
  let run conv engine =
    match engine with
    | `Reference -> Eval.run_rows ~conv ~db (program (Coll q))
    | `Plan -> Exec.run_rows ~conv ~db (program (Coll q))
  in
  (* 3VL: NULL = NULL is Unknown — only the (1,1) match survives *)
  let r3 = run Conventions.sql `Plan in
  Alcotest.(check int) "3VL: null keys never match" 1 (Relation.cardinality r3);
  check_same_bag "3VL parity" (run Conventions.sql `Reference) r3;
  (* 2VL: NULL is an ordinary value — both pairs match *)
  let conv2 = Conventions.classical in
  let r2 = run conv2 `Plan in
  Alcotest.(check int) "2VL: null is a regular key" 2 (Relation.cardinality r2);
  check_same_bag "2VL parity" (run conv2 `Reference) r2

let tc_defs =
  [
    {
      def_name = "T";
      def_body =
        collection "T" [ "src"; "dst" ]
          (disj
             [
               exists [ bind "e" "E" ]
                 (conj
                    [
                      eq (attr "T" "src") (attr "e" "src");
                      eq (attr "T" "dst") (attr "e" "dst");
                    ]);
               exists [ bind "t" "T"; bind "e" "E" ]
                 (conj
                    [
                      eq (attr "t" "dst") (attr "e" "src");
                      eq (attr "T" "src") (attr "t" "src");
                      eq (attr "T" "dst") (attr "e" "dst");
                    ]);
             ]);
    };
  ]

let tc_main =
  collection "Q" [ "src"; "dst" ]
    (exists [ bind "t" "T" ]
       (conj
          [
            eq (attr "Q" "src") (attr "t" "src");
            eq (attr "Q" "dst") (attr "t" "dst");
          ]))

let db_chain n =
  Database.of_list
    [
      ( "E",
        Relation.of_rows [ "src"; "dst" ]
          (List.init n (fun i -> [ V.Int i; V.Int (i + 1) ])) );
    ]

let plan_seminaive () =
  let db = db_chain 16 in
  let prog = program ~defs:tc_defs (Coll tc_main) in
  let naive = Exec.run_rows ~strategy:Eval.Naive ~db prog in
  let semi = Exec.run_rows ~strategy:Eval.Seminaive ~db prog in
  let reference = Eval.run_rows ~db prog in
  Alcotest.(check int) "chain closure size" (16 * 17 / 2)
    (Relation.cardinality naive);
  check_same_bag "plan naive = plan seminaive" naive semi;
  check_same_bag "plan = reference on TC" reference semi

(* Runs a program on the plan engine with per-node actuals on and renders
   them as spans, as [arc trace] does. *)
let traced ?strategy ~db prog =
  let ctx, _, optimized, _ = Exec.compile ?strategy ~db prog in
  let stats = Ir.fresh_stats () in
  ignore (Exec.exec_program ~stats ctx optimized);
  (optimized, stats, Exec.spans_of_stats ctx optimized stats)

let plan_seminaive_actually_runs () =
  (* the seminaive fixpoint must be chosen (not silently degrade to naive)
     for a plain scan-only recursive definition *)
  let _, _, spans =
    traced ~strategy:Eval.Seminaive ~db:(db_chain 6)
      (program ~defs:tc_defs (Coll tc_main))
  in
  Alcotest.(check bool) "fixpoint:seminaive span present" true
    (Obs.find_spans spans "fixpoint:seminaive" <> []);
  Alcotest.(check bool) "no naive fixpoint span" true
    (Obs.find_spans spans "fixpoint:naive" = [])

let tracer_spans () =
  let _, _, spans = traced ~db:Data.db_rs (program (Coll join_query)) in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " span present") true
        (Obs.find_spans spans name <> []))
    [ "collection:Q"; "hash_join"; "scan" ]

(* The fixpoint span renders the recursive head's actuals round by round:
   one iteration span per iteration, the deltas in order (the seminaive
   seed first), and round times that fit inside the fixpoint span. *)
let fixpoint_spans () =
  List.iter
    (fun (strategy, kind, seeded) ->
      let optimized, stats, spans =
        traced ~strategy ~db:(db_chain 6)
          (program ~defs:tc_defs (Coll tc_main))
      in
      let fx =
        match Obs.find_spans spans ("fixpoint:" ^ kind) with
        | [ fx ] -> fx
        | l -> Alcotest.failf "%s: %d fixpoint spans" kind (List.length l)
      in
      let a =
        Option.get
          (Ir.actual_of stats (List.assoc "T" (fst (Ir.program_ids optimized))))
      in
      let rounds = fx.Obs.children in
      let named n = List.filter (fun s -> s.Obs.name = n) rounds in
      Alcotest.(check int) (kind ^ ": seed spans") (if seeded then 1 else 0)
        (List.length (named "seed"));
      Alcotest.(check int) (kind ^ ": iteration spans = a_iterations")
        a.Ir.a_iterations
        (List.length (named "iteration"));
      Alcotest.(check (list int)) (kind ^ ": round deltas = a_deltas")
        (List.rev a.Ir.a_deltas)
        (List.map (fun s -> Option.get (Obs.attr_int s "delta:T")) rounds);
      let summed =
        List.fold_left (fun acc s -> Int64.add acc s.Obs.duration_ns) 0L rounds
      in
      Alcotest.(check bool) (kind ^ ": round times fit the fixpoint span")
        true
        (summed > 0L && Int64.compare summed fx.Obs.duration_ns <= 0))
    [ (Eval.Seminaive, "seminaive", true); (Eval.Naive, "naive", false) ]

let guard_truncates () =
  let guard = Gov.make ~on_limit:`Truncate { Budget.default with max_rows = Some 2 } in
  let r =
    Exec.run_rows ~guard ~db:(db_chain 10)
      (program
         (Coll
            (collection "Q" [ "src" ]
               (exists [ bind "e" "E" ]
                  (eq (attr "Q" "src") (attr "e" "src"))))))
  in
  Alcotest.(check bool) "row budget clips plan output" true
    (Relation.cardinality r <= 2);
  Alcotest.(check bool) "governor reports truncation" true
    (Gov.report guard).Gov.truncated

let explain_program () =
  let db = db_chain 4 in
  let _, _, opt, report =
    Exec.compile ~db (program ~defs:tc_defs (Coll tc_main))
  in
  let s = Explain.program_plan_to_string opt in
  Alcotest.(check bool) "recursive stratum rendered" true
    (contains s "recursive stratum {T}");
  Alcotest.(check bool) "main rendered" true (contains s "main:");
  let rs = Explain.report_to_string report in
  Alcotest.(check bool) "report lists all passes" true
    (List.for_all
       (fun n -> contains rs n)
       [ "predicate-pushdown"; "decorrelate-exists"; "hash-join-order";
         "prune-columns" ])

let magic_sets_rewrite () =
  let db = db_chain 16 in
  (* goal-directed: only paths out of node 0 are demanded *)
  let bound_main =
    collection "Q" [ "dst" ]
      (exists [ bind "t" "T" ]
         (conj
            [
              eq (attr "t" "src") (cint 0);
              eq (attr "Q" "dst") (attr "t" "dst");
            ]))
  in
  let prog = program ~defs:tc_defs (Coll bound_main) in
  let ctx, _, opt, report = Exec.compile ~db prog in
  Alcotest.(check bool) "magic-sets pass fired" true
    (List.assoc "magic-sets" report);
  let s = Explain.program_plan_to_string opt in
  Alcotest.(check bool) "magic relation in the plan" true
    (contains s "__magic__T");
  (match Exec.exec_program ctx opt with
  | Eval.Rows r ->
      check_same_bag "magic rewrite preserves the query result"
        (Eval.run_rows ~db prog) r
  | Eval.Truth _ -> Alcotest.fail "expected rows");
  (* the guarded fixpoint derives only the demanded slice of the closure:
     16 facts from source 0, not the full 136-fact closure *)
  (match Eval.Internal.idb_get ctx "T" with
  | Some t ->
      Alcotest.(check int) "only demanded facts derived" 16
        (Relation.cardinality t)
  | None -> Alcotest.fail "T not materialized");
  (match Eval.Internal.idb_get ctx "__magic__T" with
  | Some m -> Alcotest.(check int) "one seed" 1 (Relation.cardinality m)
  | None -> Alcotest.fail "__magic__T not materialized");
  (* an unbound use of T keeps the full fixpoint: no demand, no rewrite *)
  let _, _, _, report_unbound =
    Exec.compile ~db (program ~defs:tc_defs (Coll tc_main))
  in
  Alcotest.(check bool) "no constants, no rewrite" false
    (List.assoc "magic-sets" report_unbound)

(* cyclic graph: every closure fact is re-derivable each round, so the
   indexed fixpoint's seen-set (not per-round novelty) must terminate it *)
let db_cycle n =
  Database.of_list
    [
      ( "E",
        Relation.of_rows [ "src"; "dst" ]
          (List.init n (fun i -> [ V.Int i; V.Int ((i + 1) mod n) ])) );
    ]

let all_convs : (string * Conventions.t) list =
  List.concat_map
    (fun (cs, cn) ->
      List.concat_map
        (fun (nl, nn) ->
          List.map
            (fun (ae, an) ->
              ( Printf.sprintf "%s/%s/%s" cn nn an,
                Conventions.{ collection = cs; null_logic = nl; agg_empty = ae }
              ))
            [
              (Conventions.Agg_null, "agg_null");
              (Conventions.Agg_zero, "agg_zero");
            ])
        [ (Conventions.Two_valued, "2vl"); (Conventions.Three_valued, "3vl") ])
    [ (Conventions.Set, "set"); (Conventions.Bag, "bag") ]

(* indexed seminaive fixpoint ≡ naive ≡ reference, on a chain and a
   cycle, under every convention combination *)
let fixpoint_modes_agree () =
  let prog = program ~defs:tc_defs (Coll tc_main) in
  List.iter
    (fun (dbname, db) ->
      List.iter
        (fun (cname, conv) ->
          let reference = Eval.run_rows ~conv ~db prog in
          check_same_bag
            (Printf.sprintf "%s %s indexed" dbname cname)
            reference
            (Exec.run_rows ~conv ~db prog);
          check_same_bag
            (Printf.sprintf "%s %s naive" dbname cname)
            reference
            (Exec.run_rows ~conv ~strategy:Eval.Naive ~db prog))
        all_convs)
    [ ("chain-12", db_chain 12); ("cycle-8", db_cycle 8) ]

(* Guard accounting of the seminaive fixpoint. Under a 3-round iteration
   cap with `Truncate it keeps the seed plus three rounds of the closure
   (10 + 9 + 8 + 7 = 34 pairs on a 10-edge chain); under a row cap it
   clips to at most the budget and reports truncation; under `Fail it
   raises. *)
let fixpoint_guard_parity () =
  let db = db_chain 10 in
  let prog = program ~defs:tc_defs (Coll tc_main) in
  let run guard = Exec.run_rows ~guard ~db prog in
  (* iteration cap, `Truncate: the partial closure of the first rounds *)
  let iter_budget = { Budget.default with max_iterations = Some 3 } in
  let capped = run (Gov.make ~on_limit:`Truncate iter_budget) in
  Alcotest.(check int) "iteration-capped closure" 34
    (Relation.cardinality capped);
  (* row cap, `Truncate: clips to the budget and reports it *)
  let guard =
    Gov.make ~on_limit:`Truncate { Budget.default with max_rows = Some 10 }
  in
  let r = run guard in
  Alcotest.(check bool) "row cap clips" true (Relation.cardinality r <= 10);
  Alcotest.(check bool) "row-cap truncation reported" true
    (Gov.report guard).Gov.truncated;
  (* iteration cap, `Fail: raises a typed error *)
  match run (Gov.make ~on_limit:`Fail iter_budget) with
  | _ -> Alcotest.fail "the iteration cap did not trip the guard"
  | exception Eval.Eval_error _ -> ()

let () =
  Alcotest.run "arc_plan"
    [
      ( "lowering",
        [
          Alcotest.test_case "join lowers and optimizes to hash join" `Quick
            lowering_shape;
          Alcotest.test_case "catalog queries lower without fallback" `Quick
            no_fallback_shape;
          Alcotest.test_case "negated exists decorrelates" `Quick semi_shape;
        ] );
      ( "rewrites",
        [ Alcotest.test_case "every pass prefix preserves results" `Quick
            passes_preserve ] );
      ( "execution",
        [
          Alcotest.test_case "null hash keys respect null logic" `Quick
            null_key_semantics;
          Alcotest.test_case "plan-level seminaive = naive = reference" `Quick
            plan_seminaive;
          Alcotest.test_case "seminaive strategy engages on plans" `Quick
            plan_seminaive_actually_runs;
          Alcotest.test_case "operator spans reach the tracer" `Quick
            tracer_spans;
          Alcotest.test_case "fixpoint spans render the head's rounds" `Quick
            fixpoint_spans;
          Alcotest.test_case "row budget truncates plan output" `Quick
            guard_truncates;
          Alcotest.test_case "explain renders program plans" `Quick
            explain_program;
          Alcotest.test_case "magic sets restrict goal-directed recursion"
            `Quick magic_sets_rewrite;
          Alcotest.test_case "fixpoint modes agree across all conventions"
            `Quick fixpoint_modes_agree;
          Alcotest.test_case "fixpoint guard parity across modes" `Quick
            fixpoint_guard_parity;
        ] );
    ]
