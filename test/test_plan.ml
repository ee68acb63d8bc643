(* Plan library tests: lowering shapes (via the explain renderer), each
   optimizer rewrite pass preserving results, hash-key NULL semantics under
   both null logics, plan-level fixpoints, governor integration,
   the span rendering of per-node actuals, and join-annotated scopes whose
   leaves are not finite or not bound. *)

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
module Decorrelate = Arc_plan.Decorrelate
module Ir = Arc_plan.Ir
module Json = Arc_obs.Json
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

(* every combination of the three convention axes *)
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

let catalog_lowering () =
  (* eq18 carries an explicit join-tree annotation; the RANF-style
     translation lowers it to an append of matched/null-padded branches *)
  let raw, _, _ = explain_of ~db:Data.db_outer Data.eq18 in
  Alcotest.(check bool) "eq18 lowers to an append of branches" true
    (contains raw "append");
  (* every catalog query runs on its plan with the reference's bag *)
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
      check_same_bag (name ^ ": plan = reference")
        (Eval.run_rows ~db { defs; main })
        (Exec.run_rows ~db { defs; main }))
    cases;
  (* the rewrite report's unnesting flag, taken from the lowering itself,
     agrees with the sites [arc explain] lists *)
  let fired =
    List.map
      (fun (name, db, defs, main) ->
        let _, _, _, report = Exec.compile ~db { defs; main } in
        let flag = List.assoc "decorrelate-aggregates" report in
        Alcotest.(check bool)
          (name ^ ": decorrelate-aggregates = explain's fired sites")
          (List.exists Decorrelate.fired
             (snd (Exec.decorrelation ~db { defs; main })))
          flag;
        flag)
      cases
  in
  Alcotest.(check bool) "some catalog query unnests" true (List.mem true fired);
  Alcotest.(check bool) "some catalog query does not" true
    (List.mem false fired)

(* A join-annotated scope whose tree names a non-finite relation (an
   external, an abstract definition) or an unbound variable: the plan
   engine lowers it like any other scope and fails exactly as the
   reference does, under every convention. *)
let same_error_as_reference src () =
  let db =
    Database.of_list
      [ ("R", Relation.of_rows [ "a" ] [ [ V.Int 1 ]; [ V.Int 2 ] ]) ]
  in
  let prog = Arc_syntax.Parser.program_of_string src in
  let error run =
    match run () with
    | _ -> Alcotest.fail "expected an evaluation error"
    | exception Eval.Eval_error e -> Arc_guard.Error.to_string e
  in
  List.iter
    (fun (cname, conv) ->
      Alcotest.(check string) cname
        (error (fun () -> Eval.run ~conv ~db prog))
        (error (fun () -> Exec.run ~conv ~db prog)))
    all_convs

let external_leaf =
  same_error_as_reference
    "{Q(a,b) | exists r in R, p in Bigger, left(r, p) [Q.a = r.a and Q.b = \
     p.right and p.left = r.a]}"

let abstract_leaf =
  same_error_as_reference
    "def A := {A(x) | A.x > 0} {Q(a,x) | exists r in R, d in A, left(r, d) \
     [Q.a = r.a and Q.x = d.x]}"

let unbound_annotation_var =
  same_error_as_reference "{Q(a) | exists r in R, left(r, z) [Q.a = r.a]}"

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

(* the plan's delta rules against the reference's naive fixpoint *)
let plan_seminaive () =
  let db = db_chain 16 in
  let prog = program ~defs:tc_defs (Coll tc_main) in
  let reference = Eval.run_rows ~db prog in
  let plan = Exec.run_rows ~db prog in
  Alcotest.(check int) "chain closure size" (16 * 17 / 2)
    (Relation.cardinality reference);
  check_same_bag "reference naive = plan seminaive on TC" reference plan

(* Runs a program on the plan engine with per-node actuals on and renders
   them as spans, as [arc analyze -f jsonl] does. *)
let traced ~db prog =
  let ctx, _, optimized, _ = Exec.compile ~db prog in
  let stats = Ir.fresh_stats () in
  ignore (Exec.exec_program ~stats ctx optimized);
  (optimized, stats, Exec.spans_of_stats optimized stats)

(* spans are flat JSON objects; these read their fields *)
let span_int k sp = Option.bind (Json.member k sp) Json.to_int
let attr_int sp k = Option.bind (Json.member "attrs" sp) (span_int k)

let find_spans spans name =
  List.filter (fun sp -> Json.member "name" sp = Some (Json.Str name)) spans

let plan_seminaive_actually_runs () =
  (* the seminaive fixpoint must be chosen (not silently degrade to naive)
     for a plain scan-only recursive definition *)
  let _, _, spans =
    traced ~db:(db_chain 6) (program ~defs:tc_defs (Coll tc_main))
  in
  Alcotest.(check bool) "fixpoint:seminaive span present" true
    (find_spans spans "fixpoint:seminaive" <> []);
  Alcotest.(check bool) "no naive fixpoint span" true
    (find_spans spans "fixpoint:naive" = [])

let tracer_spans () =
  let _, _, spans = traced ~db:Data.db_rs (program (Coll join_query)) in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " span present") true
        (find_spans spans name <> []))
    [ "collection:Q"; "hash_join"; "scan" ]

(* A stratum the plan cannot delta-rewrite: the recursive reference sits
   in an ∃ under a disjunction, so it lowers into a residual formula and
   [Ir.seminaive_eligible] fails. Over the cycle 1→2→3→4→5→1 its fixpoint
   runs the whole definition each round: a seed of two edges, then one
   edge per round until a round adds none. *)
let opaque_text =
  "def A := {A(s, t) | exists p in P[A.s = p.s and A.t = p.t and p.s <= 2] \
   or exists p in P[A.s = p.s and A.t = p.t and (p.s = 0 or exists a2 in \
   A[p.s = a2.t])]} {Q(s, t) | exists a in A[Q.s = a.s and Q.t = a.t]}"

(* the same shape, split over a mutually recursive pair: A takes the edges
   leaving B's targets, B those leaving A's *)
let opaque_mutual_text =
  "def A := {A(s, t) | exists p in P[A.s = p.s and A.t = p.t and p.s <= 1] \
   or exists p in P[A.s = p.s and A.t = p.t and (p.s = 0 or exists b in \
   B[p.s = b.t])]} def B := {B(s, t) | exists p in P[B.s = p.s and B.t = \
   p.t and (p.s = 0 or exists a in A[p.s = a.t])]} {Q(s, t) | exists a in \
   A[Q.s = a.s and Q.t = a.t] or exists b in B[Q.s = b.s and Q.t = b.t]}"

let db_p_cycle =
  Database.of_list
    [
      ( "P",
        Relation.of_rows [ "s"; "t" ]
          (List.init 5 (fun i -> [ V.Int (i + 1); V.Int (((i + 1) mod 5) + 1) ]))
      );
    ]

let recursive_strata (pp : Ir.program_plan) =
  List.filter_map
    (function Ir.Recursive dps -> Some dps | Ir.Nonrecursive _ -> None)
    pp.Ir.strata

let eligible dps = Ir.seminaive_eligible (List.map (fun d -> d.Ir.dname) dps) dps

(* the paper's P(s, t) edges 0→1→…→n *)
let db_p_chain n =
  Database.of_list
    [
      ( "P",
        Relation.of_rows [ "s"; "t" ]
          (List.init n (fun i -> [ V.Int i; V.Int (i + 1) ])) );
    ]

(* The fixpoint span renders the recursive heads' actuals round by round:
   a seed span, one iteration span per iteration, the deltas in order,
   deltas that sum to each head's final size, and round times that fit
   inside the fixpoint span. Delta rules render as [fixpoint:seminaive],
   whole-definition rules as [fixpoint:naive]. *)
let fixpoint_spans () =
  List.iter
    (fun (kind, db, prog, heads) ->
      let optimized, stats, spans = traced ~db prog in
      let fx =
        match find_spans spans ("fixpoint:" ^ kind) with
        | [ fx ] -> fx
        | l -> Alcotest.failf "%s: %d fixpoint spans" kind (List.length l)
      in
      let rounds =
        List.filter
          (fun sp -> Json.member "parent" sp = Json.member "id" fx)
          spans
      in
      let named n = find_spans rounds n in
      Alcotest.(check int) (kind ^ ": seed spans") 1
        (List.length (named "seed"));
      Alcotest.(check int) (kind ^ ": seed comes first") 0
        (List.length (find_spans (List.tl rounds) "seed"));
      List.iter
        (fun (head, size) ->
          let a =
            Option.get
              (Ir.actual_of stats
                 (List.assoc head (fst (Ir.program_ids optimized))))
          in
          Alcotest.(check int) (kind ^ ": iteration spans = a_iterations")
            a.Ir.a_iterations
            (List.length (named "iteration"));
          Alcotest.(check (option int))
            (kind ^ ": span iterations = a_iterations")
            (Some a.Ir.a_iterations)
            (attr_int fx "iterations");
          Alcotest.(check (list int)) (kind ^ ": round deltas = a_deltas")
            (List.rev a.Ir.a_deltas)
            (List.map
               (fun s -> Option.get (attr_int s ("delta:" ^ head)))
               rounds);
          Alcotest.(check int) (kind ^ ": deltas sum to |" ^ head ^ "|") size
            (List.fold_left ( + ) 0 a.Ir.a_deltas))
        heads;
      let dur sp = Option.get (span_int "dur_ns" sp) in
      let summed = List.fold_left (fun acc s -> acc + dur s) 0 rounds in
      Alcotest.(check bool) (kind ^ ": round times fit the fixpoint span")
        true
        (summed > 0 && summed <= dur fx))
    [
      ( "seminaive",
        db_chain 6,
        program ~defs:tc_defs (Coll tc_main),
        [ ("T", 21) ] );
      (* eq16's closure of a 12-edge chain: 12*13/2 pairs *)
      ( "seminaive",
        db_p_chain 12,
        program ~defs:Data.eq16_defs (Coll Data.eq16_main),
        [ ("A", 78) ] );
      ( "naive",
        db_p_cycle,
        Arc_syntax.Parser.program_of_string opaque_text,
        [ ("A", 5) ] );
      ( "naive",
        db_p_cycle,
        Arc_syntax.Parser.program_of_string opaque_mutual_text,
        [ ("A", 5); ("B", 5) ] );
    ]

(* The whole-definition path: the fixtures' strata are not eligible, the
   plan agrees with the reference under every convention, each head's
   act is its 5-edge closure, and the single definition's rounds are the
   ones the comment on [opaque_text] describes. The mutual pair commits
   both definitions of a round together, where the reference commits
   them one after the other; the closures still agree. *)
let whole_definition_fixpoint () =
  List.iter
    (fun (name, text, base_rows, heads) ->
      let prog = Arc_syntax.Parser.program_of_string text in
      let optimized, stats, _ = traced ~db:db_p_cycle prog in
      Alcotest.(check (list bool)) (name ^ ": not seminaive-eligible")
        [ false ]
        (List.map eligible (recursive_strata optimized));
      List.iter
        (fun (cname, conv) ->
          check_same_bag
            (Printf.sprintf "%s %s: plan = reference" name cname)
            (Eval.run_rows ~conv ~db:db_p_cycle prog)
            (Exec.run_rows ~conv ~db:db_p_cycle prog))
        all_convs;
      List.iter
        (fun (head, rounds) ->
          let a =
            Option.get
              (Ir.actual_of stats
                 (List.assoc head (fst (Ir.program_ids optimized))))
          in
          Alcotest.(check int) (name ^ ": head act = closure") 5 a.Ir.a_rows;
          (* A's first disjunct reads no component, so only the seed runs
             it *)
          (if head = "A" then
             let id = List.assoc head (fst (Ir.program_ids optimized)) in
             let dp =
               List.find
                 (fun d -> d.Ir.dname = head)
                 (List.concat (recursive_strata optimized))
             in
             let base =
               Option.get
                 (Ir.actual_of stats
                    (List.hd (Ir.node_child_ids id (Ir.C dp.Ir.dplan))))
             in
             Alcotest.(check (pair int int))
               (name ^ ": base disjunct runs once")
               (1, base_rows) (base.Ir.a_invocations, base.Ir.a_rows));
          Option.iter
            (fun deltas ->
              Alcotest.(check (list int)) (name ^ ": seed, then a round each")
                deltas (List.rev a.Ir.a_deltas);
              Alcotest.(check int) (name ^ ": iterations after the seed")
                (List.length deltas - 1) a.Ir.a_iterations)
            rounds)
        heads)
    [
      ("single", opaque_text, 2, [ ("A", Some [ 2; 1; 1; 1; 0 ]) ]);
      ("mutual", opaque_mutual_text, 1, [ ("A", None); ("B", None) ]);
    ]

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
   indexed fixpoint's accumulator index (not per-round novelty) must
   terminate it *)
let db_cycle n =
  Database.of_list
    [
      ( "E",
        Relation.of_rows [ "src"; "dst" ]
          (List.init n (fun i -> [ V.Int i; V.Int ((i + 1) mod n) ])) );
    ]

(* Both kinds of plan rules ≡ the reference's naive fixpoint, on a chain
   and a cycle, under every convention combination: TC runs delta rules,
   reachability from node 0 written as the whole-definition fixture
   ([opaque_text]) runs whole-definition rules. *)
let fixpoint_modes_agree () =
  let prog = program ~defs:tc_defs (Coll tc_main) in
  let opaque =
    Arc_syntax.Parser.program_of_string
      "def T := {T(src, dst) | exists e in E[T.src = e.src and T.dst = e.dst \
       and e.src <= 0] or exists e in E[T.src = e.src and T.dst = e.dst and \
       (e.src = 0 or exists t in T[e.src = t.dst])]} {Q(src, dst) | exists \
       t in T[Q.src = t.src and Q.dst = t.dst]}"
  in
  List.iter
    (fun (dbname, db) ->
      List.iter
        (fun (cname, conv) ->
          check_same_bag
            (Printf.sprintf "%s %s indexed" dbname cname)
            (Eval.run_rows ~conv ~db prog)
            (Exec.run_rows ~conv ~db prog);
          check_same_bag
            (Printf.sprintf "%s %s naive" dbname cname)
            (Eval.run_rows ~conv ~db opaque)
            (Exec.run_rows ~conv ~db opaque))
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

(* ---------------------------------------------------------------- *)
(* decorrelate-aggregates: count-bug-correct unnesting                *)
(* ---------------------------------------------------------------- *)

let parse = Arc_syntax.Parser.program_of_string

(* Customers/Orders with every corner the pad must get right: NULL
   correlation keys on both sides, a duplicated outer row, an Int 1 outer
   key against Float 1.0 inner keys (and Int 3 inner against Float 3.0
   outer), NULL aggregate inputs, and customers whose group is empty. *)
let db_corr =
  let i n = V.Int n and f x = V.Float x and s x = V.Str x in
  Database.of_list
    [
      ( "C",
        Relation.of_rows [ "cid"; "rid"; "name" ]
          [
            [ i 1; i 1; s "a" ];
            [ i 1; i 1; s "a" ];
            [ i 2; i 1; s "b" ];
            [ V.Null; i 1; s "n" ];
            [ f 3.0; i 2; s "f" ];
            [ i 5; V.Null; s "e" ];
          ] );
      ( "O",
        Relation.of_rows [ "oid"; "cid"; "rid"; "total" ]
          [
            [ i 1; f 1.0; i 1; i 10 ];
            [ i 2; i 1; i 1; i 20 ];
            [ i 3; V.Null; i 1; i 5 ];
            [ i 4; i 3; i 2; i 7 ];
            [ i 5; i 3; i 2; V.Null ];
            [ i 6; i 1; i 2; i 10 ];
            [ i 7; i 5; V.Null; i 4 ];
          ] );
    ]

(* Q4's shape (a lateral aggregate per customer) with each aggregate, Q6's
   shape (outer rows compared with their group's aggregate), two
   correlation keys, an inner-local filter, and the paper's count bug as a
   nested collection (Eq 27 written the lateral way). *)
let corr_cases =
  let q4 agg =
    Printf.sprintf
      "{Q(name, v) | exists c in C, x in {X(v) | exists o in O, gamma_0 \
       [o.cid = c.cid and o.total > 6 and X.v = %s]} [Q.name = c.name and \
       Q.v = x.v]}"
      agg
  in
  List.map
    (fun agg -> ("Q4 " ^ agg, db_corr, q4 agg))
    [ "count(o.oid)"; "sum(o.total)"; "avg(o.total)"; "min(o.total)";
      "max(o.total) + count(o.oid)" ]
  @ [
      ( "Q6",
        db_corr,
        "{Q(oid) | exists o in O, x in {X(a) | exists o2 in O, gamma_0 \
         [o2.cid = o.cid and o2.oid <> 2 and X.a = avg(o2.total)]} [Q.oid = \
         o.oid and (o.total > x.a or o.total = 10)]}" );
      ( "two keys",
        db_corr,
        "{Q(name, n, t) | exists c in C, x in {X(n, t) | exists o in O, \
         gamma_0 [c.cid = o.cid and o.rid = c.rid and X.n = count(o.oid) and \
         X.t = sum(o.total)]} [Q.name = c.name and Q.n = x.n and Q.t = x.t]}" );
      ( "count bug",
        Data.db_countbug,
        "{Q(id) | exists r in R, x in {X(ct) | exists s in S, gamma_0 [s.id = \
         r.id and X.ct = count(s.d)]} [Q.id = r.id and r.q = x.ct]}" );
    ]

let finite_in db p n =
  Database.mem db n || List.exists (fun d -> d.def_name = n) p.defs

(* The rewrite checked by the reference evaluator alone: the original and
   the rewritten program are bag-equal under all 8 conventions. *)
let decorrelate_reference () =
  List.iter
    (fun (name, db, text) ->
      let p = parse text in
      let p' = Decorrelate.program ~finite:(finite_in db p) p in
      Alcotest.(check bool) (name ^ ": the site fires") false
        (equal_program p p');
      List.iter
        (fun (cname, conv) ->
          check_same_bag
            (Printf.sprintf "%s @ %s: rewritten = original" name cname)
            (Eval.run_rows ~conv ~db p) (Eval.run_rows ~conv ~db p');
          check_same_bag
            (Printf.sprintf "%s @ %s: plan = reference" name cname)
            (Eval.run_rows ~conv ~db p) (Exec.run_rows ~conv ~db p))
        all_convs)
    corr_cases;
  (* the count bug itself: the empty group's COUNT is 0, so r survives,
     as in Eq 27 *)
  let _, db, text = List.nth corr_cases (List.length corr_cases - 1) in
  let r = Exec.run_rows ~db (parse text) in
  Alcotest.(check int) "count bug: r survives" 1 (Relation.cardinality r);
  check_same_bag "count bug: Eq 27's answer"
    (Eval.run_rows ~db (program (Coll Data.eq27)))
    r

let plan_text ~db text =
  let _, _, opt, report = Exec.compile ~db (parse text) in
  (Explain.program_plan_to_string opt, Explain.report_to_string report)

let decorrelate_plans () =
  List.iter
    (fun (name, db, text) ->
      let plan, report = plan_text ~db text in
      Alcotest.(check bool) (name ^ ": no lateral") false
        (contains plan "lateral");
      Alcotest.(check bool) (name ^ ": grouped hash join") true
        (contains plan "hash join on");
      Alcotest.(check bool) (name ^ ": empty-group pad") true
        (contains plan "hash anti join");
      Alcotest.(check bool) (name ^ ": reported") true
        (contains report "decorrelate-aggregates \xe2\x9c\x93"))
    corr_cases;
  (* the pad's pre-filter is the empty disjunction, rendered as false *)
  let plan, _ = plan_text ~db:db_corr (let _, _, t = List.hd corr_cases in t) in
  Alcotest.(check bool) "pad filter renders false" true
    (contains plan "residual filter false")

(* Each decline keeps the lateral and names its reason. *)
let decorrelate_declines () =
  let declined text reason =
    let p = parse text in
    let p', sites = Decorrelate.program_sites ~finite:(finite_in db_corr p) p in
    Alcotest.(check bool) (reason ^ ": program unchanged") true
      (equal_program p p');
    Alcotest.(check bool) (reason ^ ": reason given") true
      (List.exists
         (fun (s : Decorrelate.site) ->
           match s.outcome with
           | Declined why -> contains why reason
           | Fired -> false)
         sites);
    let plan, report = plan_text ~db:db_corr text in
    Alcotest.(check bool) (reason ^ ": lateral kept") true
      (contains plan "lateral");
    Alcotest.(check bool) (reason ^ ": not reported") true
      (contains report "decorrelate-aggregates \xc2\xb7");
    List.iter
      (fun (cname, conv) ->
        check_same_bag
          (Printf.sprintf "%s @ %s: plan = reference" reason cname)
          (Eval.run_rows ~conv ~db:db_corr p)
          (Exec.run_rows ~conv ~db:db_corr p))
      all_convs
  in
  declined
    "{Q(name, ct) | exists c in C, x in {X(ct) | exists o in O, gamma_0 \
     [o.cid < c.cid and X.ct = count(o.oid)]} [Q.name = c.name and Q.ct = \
     x.ct]}"
    "correlation is not an equality";
  declined
    "{Q(name, ct) | exists c in C, x in {X(ct) | exists o in O, gamma_0 \
     [o.cid = c.cid and X.ct = count(o.oid)]}, gamma_{c.name} [Q.name = \
     c.name and Q.ct = sum(x.ct)]}"
    "the enclosing scope is grouped";
  declined
    "{Q(name, ct) | exists c in C, x in {X(ct) | exists o in O, gamma_0 \
     [o.cid = c.cid and count(o.oid) > 1 and X.ct = count(o.oid)]} [Q.name \
     = c.name and Q.ct = x.ct]}"
    "aggregate comparison in the inner scope";
  (* an inner source the rewrite may not range over by itself *)
  let p =
    parse
      "{Q(name, ct) | exists c in C, x in {X(ct) | exists o in O, gamma_0 \
       [o.cid = c.cid and X.ct = count(o.oid)]} [Q.name = c.name and Q.ct = \
       x.ct]}"
  in
  let _, sites = Decorrelate.program_sites ~finite:(fun n -> n = "C") p in
  Alcotest.(check bool) "non-finite inner source declines" true
    (List.exists
       (fun (s : Decorrelate.site) ->
         match s.outcome with
         | Declined why -> contains why "not a finite stored relation"
         | Fired -> false)
       sites)

(* The empty disjunction is the constant false in plan labels too. *)
let false_label () =
  let db =
    Database.of_list [ ("R", Relation.of_rows [ "a" ] [ [ V.Int 1 ] ]) ]
  in
  let raw, _, _ =
    explain_of ~db
      (collection "Q" [ "a" ]
         (exists [ bind "r" "R" ] (conj [ Or []; eq (attr "Q" "a") (attr "r" "a") ])))
  in
  Alcotest.(check bool) "residual filter false" true
    (contains raw "residual filter false");
  Alcotest.(check bool) "no empty parentheses" false
    (contains raw "residual filter ()")

let () =
  Alcotest.run "arc_plan"
    [
      ( "lowering",
        [
          Alcotest.test_case "join lowers and optimizes to hash join" `Quick
            lowering_shape;
          Alcotest.test_case "catalog queries lower without fallback"
            `Quick catalog_lowering;
          Alcotest.test_case "external join-tree leaf fails as the reference"
            `Quick external_leaf;
          Alcotest.test_case "abstract join-tree leaf fails as the reference"
            `Quick abstract_leaf;
          Alcotest.test_case "unbound annotation variable fails as the reference"
            `Quick unbound_annotation_var;
          Alcotest.test_case "negated exists decorrelates" `Quick semi_shape;
          Alcotest.test_case "the empty disjunction renders as false" `Quick
            false_label;
        ] );
      ( "unnest",
        [
          Alcotest.test_case "rewrite = original on the reference, 8 conventions"
            `Quick decorrelate_reference;
          Alcotest.test_case "Q4/Q6 plans have no lateral" `Quick
            decorrelate_plans;
          Alcotest.test_case "declined sites keep their lateral" `Quick
            decorrelate_declines;
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
          Alcotest.test_case "whole-definition fixpoint = reference" `Quick
            whole_definition_fixpoint;
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
