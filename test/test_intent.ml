(* Intent toolkit tests: pattern equality, similarity metrics, randomized
   equivalence, and the NL2SQL validation report. *)

open Arc_core.Ast
open Arc_core.Build
module Intent = Arc_intent.Intent

let schemas = [ ("R", [ "A"; "B" ]); ("S", [ "B"; "C" ]) ]

let eq1 =
  coll "Q" [ "A" ]
    (exists
       [ bind "r" "R"; bind "s" "S" ]
       (conj
          [
            eq (attr "Q" "A") (attr "r" "A");
            eq (attr "r" "B") (attr "s" "B");
            eq (attr "s" "C") (cint 0);
          ]))

(* same pattern, different names and conjunct order *)
let eq1_variant =
  coll "Out" [ "A" ]
    (exists
       [ bind "x" "R"; bind "y" "S" ]
       (conj
          [
            eq (attr "y" "C") (cint 0);
            eq (attr "Out" "A") (attr "x" "A");
            eq (attr "x" "B") (attr "y" "B");
          ]))

let pattern_equality () =
  Alcotest.(check bool) "renamed/reordered equal" true
    (Intent.pattern_equal eq1 eq1_variant);
  Alcotest.(check bool) "different constant differs" false
    (Intent.pattern_equal eq1
       (coll "Q" [ "A" ]
          (exists
             [ bind "r" "R"; bind "s" "S" ]
             (conj
                [
                  eq (attr "Q" "A") (attr "r" "A");
                  eq (attr "r" "B") (attr "s" "B");
                  eq (attr "s" "C") (cint 1);
                ]))))

let similarity_scale () =
  Alcotest.(check (float 0.0001)) "identical = 1.0" 1.0
    (Intent.similarity eq1 eq1_variant);
  let close =
    coll "Q" [ "A" ]
      (exists
         [ bind "r" "R"; bind "s" "S" ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              eq (attr "r" "B") (attr "s" "B");
              eq (attr "s" "C") (cint 1);
            ]))
  in
  let far =
    coll "Q" [ "sm" ]
      (exists ~grouping:group_all [ bind "t" "T" ]
         (eq (attr "Q" "sm") (sum (attr "t" "B"))))
  in
  let s_close = Intent.similarity eq1 close in
  let s_far = Intent.similarity eq1 far in
  Alcotest.(check bool) "close > far" true (s_close > s_far);
  Alcotest.(check bool) "close < 1" true (s_close < 1.0);
  Alcotest.(check bool) "bounded" true (s_far >= 0.0 && s_close <= 1.0)

let surface_vs_intent () =
  (* the paper's motivation: equivalent queries, dissimilar strings *)
  let gold = "select R.A from R, S where R.B = S.B and S.C = 0" in
  let candidate =
    "select  r.A\nfrom R r join S s on r.B = s.B\nwhere s.C = 0"
  in
  let r = Intent.compare_sql ~schemas ~gold ~candidate () in
  Alcotest.(check bool) "not an exact string match" false r.Intent.exact_string_match;
  Alcotest.(check bool) "executes equivalently" true
    (r.Intent.execution_equivalent = Some true);
  Alcotest.(check bool) "intent similarity is 1.0" true
    (r.Intent.intent_similarity >= 0.999);
  (* near-identical strings, different meaning *)
  let candidate2 = "select R.A from R, S where R.B = S.B and S.C = 1" in
  let r2 = Intent.compare_sql ~schemas ~gold ~candidate:candidate2 () in
  Alcotest.(check bool) "high surface similarity" true
    (r2.Intent.surface_similarity > 0.9);
  Alcotest.(check bool) "but not equivalent" true
    (r2.Intent.execution_equivalent = Some false);
  (* JOIN … ON against its comma-join twin, both inside a derived table:
     the derived table's WHERE + ON conjuncts nest, its pattern does not *)
  let derived from =
    "select X.A from (select R.A from " ^ from
    ^ " R.B = 1 and S.C = 2) X"
  in
  let r3 =
    Intent.compare_sql
      ~schemas:[ ("R", [ "A"; "B" ]); ("S", [ "A"; "C" ]) ]
      ~gold:(derived "R join S on R.A = S.A where")
      ~candidate:(derived "R, S where R.A = S.A and") ()
  in
  Alcotest.(check bool) "derived tables: same pattern" true
    r3.Intent.pattern_match

let string_similarity_basics () =
  Alcotest.(check (float 0.0001)) "identical" 1.0
    (Intent.string_similarity "select 1" "SELECT  1");
  Alcotest.(check bool) "disjoint low" true
    (Intent.string_similarity "abcabcabc" "xyzxyzxyz" < 0.2)

let equivalence_testing () =
  (* nested vs unnested agree under set semantics (Section 2.7) *)
  let nested =
    coll "Q" [ "A" ]
      (exists [ bind "r" "R" ]
         (exists [ bind "s" "S" ]
            (conj
               [
                 eq (attr "Q" "A") (attr "r" "A");
                 eq (attr "r" "B") (attr "s" "B");
               ])))
  in
  let unnested =
    coll "Q" [ "A" ]
      (exists
         [ bind "r" "R"; bind "s" "S" ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              eq (attr "r" "B") (attr "s" "B");
            ]))
  in
  (match
     Intent.equivalence ~conv:Arc_value.Conventions.sql_set ~schemas nested
       unnested
   with
  | Intent.Equivalent -> ()
  | Intent.Counterexample db ->
      Alcotest.failf "unexpected counterexample:@.%s"
        (Format.asprintf "%a" Arc_relation.Database.pp db));
  (* ... and diverge under bag semantics *)
  match
    Intent.equivalence ~conv:Arc_value.Conventions.sql ~trials:100 ~schemas
      nested unnested
  with
  | Intent.Counterexample _ -> ()
  | Intent.Equivalent ->
      Alcotest.fail "expected bag-semantics counterexample"

let invalid_candidate_reported () =
  let r =
    Intent.compare_sql ~schemas ~gold:"select R.A from R"
      ~candidate:"select R.A frm R" ()
  in
  Alcotest.(check bool) "does not parse" false r.Intent.parses;
  Alcotest.(check bool) "no execution verdict" true
    (r.Intent.execution_equivalent = None);
  Alcotest.(check bool) "report renders" true
    (String.length (Intent.report_to_string r) > 0)

let fio_foi_similarity () =
  (* FIO and FOI formulations: equivalent results, different patterns —
     intent similarity sees the difference, execution does not *)
  let fio = "select R.A, sum(R.B) sm from R group by R.A" in
  let foi =
    "select distinct R.A, (select sum(R2.B) from R R2 where R2.A = R.A) sm \
     from R"
  in
  let r = Intent.compare_sql ~schemas ~gold:fio ~candidate:foi () in
  Alcotest.(check bool) "patterns differ" false r.Intent.pattern_match;
  Alcotest.(check bool) "similarity below 1" true
    (r.Intent.intent_similarity < 1.0)

let () =
  Alcotest.run "arc_intent"
    [
      ( "patterns",
        [
          Alcotest.test_case "canonical equality" `Quick pattern_equality;
          Alcotest.test_case "similarity scale" `Quick similarity_scale;
          Alcotest.test_case "string similarity" `Quick string_similarity_basics;
        ] );
      ( "equivalence",
        [ Alcotest.test_case "set vs bag (un)nesting" `Quick equivalence_testing ] );
      ( "nl2sql reports",
        [
          Alcotest.test_case "surface vs intent" `Quick surface_vs_intent;
          Alcotest.test_case "invalid candidate" `Quick invalid_candidate_reported;
          Alcotest.test_case "FIO vs FOI" `Quick fio_foi_similarity;
        ] );
    ]
