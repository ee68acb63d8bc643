(* Differential testing: the plan engine (Exec) against the reference
   evaluator (Eval) on the full Fig/Eq catalog plus queries drawn from the
   examples/ programs, under every convention combination. The two
   engines must agree bag-for-bag (or both
   raise an evaluation error). *)

open Arc_core.Ast
open Arc_core.Build
module V = Arc_value.Value
module B3 = Arc_value.Bool3
module Conventions = Arc_value.Conventions
module Relation = Arc_relation.Relation
module Tuple = Arc_relation.Tuple
module Database = Arc_relation.Database
module Eval = Arc_engine.Eval
module Exec = Arc_engine.Exec
module Data = Arc_catalog.Data

let program ?(defs = []) main = { defs; main }

(* every convention combination: 2 collection × 2 null-logic × 2 agg-empty *)
let all_conventions : (string * Conventions.t) list =
  List.concat_map
    (fun (cs, cn) ->
      List.concat_map
        (fun (nl, nn) ->
          List.map
            (fun (ae, an) ->
              ( Printf.sprintf "%s/%s/%s" cn nn an,
                Conventions.
                  { collection = cs; null_logic = nl; agg_empty = ae } ))
            [ (Conventions.Agg_null, "agg_null");
              (Conventions.Agg_zero, "agg_zero") ])
        [ (Conventions.Two_valued, "2vl"); (Conventions.Three_valued, "3vl") ])
    [ (Conventions.Set, "set"); (Conventions.Bag, "bag") ]

type run_result =
  | Bag of string list  (** sorted canonical tuple keys *)
  | Truth of B3.t
  | Errored of string

let outcome_of ~engine ~conv ~db prog =
  match engine ~conv ~db prog with
  | Eval.Rows r ->
      Bag (List.sort compare (List.map Tuple.key (Relation.tuples r)))
  | Eval.Truth t -> Truth t
  | exception Eval.Eval_error _ -> Errored "eval_error"

let result_to_string = function
  | Bag keys -> Printf.sprintf "bag of %d rows" (List.length keys)
  | Truth t -> "truth " ^ B3.to_string t
  | Errored m -> "error: " ^ m

let agree a b =
  match (a, b) with
  | Bag x, Bag y -> x = y
  | Truth x, Truth y -> x = y
  | Errored _, Errored _ -> true (* both engines reject: acceptable *)
  | _ -> false

let check_case name ~db ?(defs = []) main () =
  let prog = program ~defs main in
  List.iter
    (fun (cname, conv) ->
      let reference =
        outcome_of ~engine:(fun ~conv ~db p -> Eval.run ~conv ~db p) ~conv ~db
          prog
      in
      let plan =
        outcome_of ~engine:(fun ~conv ~db p -> Exec.run ~conv ~db p) ~conv ~db
          prog
      in
      if not (agree reference plan) then
        Alcotest.failf "%s [%s]: reference %s, plan %s" name cname
          (result_to_string reference)
          (result_to_string plan))
    all_conventions

(* ---------------------------------------------------------------- *)
(* Catalog corpus: every Fig/Eq query with its paper database        *)
(* ---------------------------------------------------------------- *)

let db_xy =
  Database.of_list
    [
      ("X", Relation.of_rows [ "A" ] [ [ V.Int 1 ]; [ V.Int 5 ] ]);
      ("Y", Relation.of_rows [ "A" ] [ [ V.Int 2 ]; [ V.Int 6 ] ]);
    ]

let db_sec27 =
  Database.of_list
    [
      ("R", Relation.of_rows [ "A"; "B" ] [ [ V.Int 1; V.Int 7 ] ]);
      ("S", Relation.of_rows [ "B" ] [ [ V.Int 7 ]; [ V.Int 7 ] ]);
    ]

let db_dedup =
  Database.of_list
    [
      ( "R",
        Relation.of_rows [ "A"; "B" ]
          [ [ V.Int 1; V.Int 2 ]; [ V.Int 1; V.Int 2 ]; [ V.Int 3; V.Int 4 ] ]
      );
    ]

let catalog_cases =
  [
    ("eq1", Data.db_rs, [], Coll Data.eq1);
    ("eq2", db_xy, [], Coll Data.eq2);
    ("eq3", Data.db_grouping, [], Coll Data.eq3);
    ("eq7", Data.db_grouping, [], Coll Data.eq7);
    ("eq8", Data.db_payroll, [], Coll Data.eq8);
    ("eq10", Data.db_payroll, [], Coll Data.eq10);
    ("eq12", Data.db_payroll, [], Coll Data.eq12);
    ("eq13", Data.db_boolean, [], Sentence Data.eq13);
    ("eq14", Data.db_boolean, [], Sentence Data.eq14);
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
    ("dedup-grouping", db_dedup, [], Coll Data.dedup_grouping);
  ]

(* ---------------------------------------------------------------- *)
(* Example-program corpus (examples/*.ml queries, rebuilt here)      *)
(* ---------------------------------------------------------------- *)

let s = V.str

let db_division =
  Database.of_list
    [
      ( "Supplies",
        Relation.of_rows [ "sup"; "part" ]
          [
            [ s "acme"; s "bolt" ]; [ s "acme"; s "nut" ]; [ s "acme"; s "cam" ];
            [ s "bolts4u"; s "bolt" ]; [ s "bolts4u"; s "nut" ];
            [ s "camco"; s "cam" ];
          ] );
      ( "Parts",
        Relation.of_rows [ "part" ] [ [ s "bolt" ]; [ s "nut" ]; [ s "cam" ] ]
      );
    ]

(* relational_division.ml: double negation (anti-join of anti-joins) *)
let division_trc =
  collection "Q" [ "sup" ]
    (exists [ bind "s1" "Supplies" ]
       (conj
          [
            eq (attr "Q" "sup") (attr "s1" "sup");
            not_
              (exists [ bind "p" "Parts" ]
                 (not_
                    (exists [ bind "s2" "Supplies" ]
                       (conj
                          [
                            eq (attr "s2" "sup") (attr "s1" "sup");
                            eq (attr "s2" "part") (attr "p" "part");
                          ]))));
          ]))

let db_analytics =
  Database.of_list
    [
      ( "Orders",
        Relation.of_rows [ "oid"; "cust"; "amount" ]
          (List.init 40 (fun i ->
               [ V.Int i; V.Int (i mod 7); V.Int ((i * 13 mod 50) + 1) ])) );
      ( "Customers",
        Relation.of_rows [ "cust"; "region" ]
          (List.init 7 (fun i -> [ V.Int i; s (if i mod 2 = 0 then "n" else "s") ]))
      );
    ]

(* analytics_workload.ml: join + grouped aggregate + having *)
let analytics_rollup =
  collection "Q" [ "region"; "total" ]
    (exists
       ~grouping:[ ("c", "region") ]
       [ bind "o" "Orders"; bind "c" "Customers" ]
       (conj
          [
            eq (attr "o" "cust") (attr "c" "cust");
            eq (attr "Q" "region") (attr "c" "region");
            eq (attr "Q" "total") (sum (attr "o" "amount"));
            gt (sum (attr "o" "amount")) (cint 0);
          ]))

let db_chain n =
  Database.of_list
    [
      ( "E",
        Relation.of_rows [ "src"; "dst" ]
          (List.init n (fun i -> [ V.Int i; V.Int (i + 1) ])) );
    ]

(* transitive closure, the canonical recursive workload *)
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
             ])
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

let example_cases =
  [
    ("division-trc", db_division, [], Coll division_trc);
    ("analytics-rollup", db_analytics, [], Coll analytics_rollup);
    ("tc-chain", db_chain 12, tc_defs, Coll tc_main);
  ]

let () =
  let case (name, db, defs, main) =
    Alcotest.test_case name `Quick (check_case name ~db ~defs main)
  in
  Alcotest.run "arc_diff"
    [
      ("catalog", List.map case catalog_cases);
      ("examples", List.map case example_cases);
    ]
