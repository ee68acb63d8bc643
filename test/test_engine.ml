(* Engine tests: the conceptual evaluation strategy, construct by construct,
   plus the paper's worked behavioral examples. *)

open Arc_core.Ast
open Arc_core.Build
module V = Arc_value.Value
module B3 = Arc_value.Bool3
module Conventions = Arc_value.Conventions
module Relation = Arc_relation.Relation
module Database = Arc_relation.Database
module Eval = Arc_engine.Eval

let i = V.int
let s = V.str

let check_rel ?(msg = "result") expected actual =
  if not (Relation.equal_bag (Relation.sort expected) (Relation.sort actual))
  then
    Alcotest.failf "%s:@.expected:@.%s@.actual:@.%s" msg
      (Relation.to_table (Relation.sort expected))
      (Relation.to_table (Relation.sort actual))

let check_set ?(msg = "result") expected actual =
  if not (Relation.equal_set expected actual) then
    Alcotest.failf "%s:@.expected:@.%s@.actual:@.%s" msg
      (Relation.to_table (Relation.sort expected))
      (Relation.to_table (Relation.sort actual))

(* R(A,B), S(B,C) used across many tests *)
let db_rs =
  Database.of_list
    [
      ("R", Relation.of_rows [ "A"; "B" ] [ [ i 1; i 10 ]; [ i 2; i 20 ]; [ i 3; i 30 ] ]);
      ("S", Relation.of_rows [ "B"; "C" ] [ [ i 10; i 0 ]; [ i 20; i 5 ]; [ i 99; i 0 ] ]);
    ]

(* Eq (1): { Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ s.C = 0] } *)
let eq1 () =
  let q =
    coll "Q" [ "A" ]
      (exists
         [ bind "r" "R"; bind "s" "S" ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              eq (attr "r" "B") (attr "s" "B");
              eq (attr "s" "C") (cint 0);
            ]))
  in
  let result = Eval.run_rows ~db:db_rs (program q) in
  check_rel (Relation.of_rows [ "A" ] [ [ i 1 ] ]) result

(* Simple projection keeps bag multiplicities under bag semantics *)
let bag_projection () =
  let db =
    Database.of_list
      [ ("R", Relation.of_rows [ "A"; "B" ] [ [ i 1; i 1 ]; [ i 1; i 2 ] ]) ]
  in
  let q =
    coll "Q" [ "A" ]
      (exists [ bind "r" "R" ] (eq (attr "Q" "A") (attr "r" "A")))
  in
  let bag = Eval.run_rows ~conv:Conventions.sql ~db (program q) in
  Alcotest.(check int) "bag keeps duplicates" 2 (Relation.cardinality bag);
  let set = Eval.run_rows ~conv:Conventions.sql_set ~db (program q) in
  Alcotest.(check int) "set deduplicates" 1 (Relation.cardinality set)

(* Eq (3): grouped aggregate, FIO *)
let grouped_aggregate () =
  let db =
    Database.of_list
      [
        ( "R",
          Relation.of_rows [ "A"; "B" ]
            [ [ i 1; i 10 ]; [ i 1; i 20 ]; [ i 2; i 5 ] ] );
      ]
  in
  let q =
    coll "Q" [ "A"; "sm" ]
      (exists
         ~grouping:[ ("r", "A") ]
         [ bind "r" "R" ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              eq (attr "Q" "sm") (sum (attr "r" "B"));
            ]))
  in
  let result = Eval.run_rows ~db (program q) in
  check_rel
    (Relation.of_rows [ "A"; "sm" ] [ [ i 1; i 30 ]; [ i 2; i 5 ] ])
    result

(* multiple aggregates share one scope (Section 2.5) *)
let multi_aggregate_one_scope () =
  let db =
    Database.of_list
      [
        ( "R",
          Relation.of_rows [ "A"; "B" ]
            [ [ i 1; i 10 ]; [ i 1; i 20 ]; [ i 2; i 6 ] ] );
      ]
  in
  let q =
    coll "Q" [ "A"; "sm"; "ct"; "mx" ]
      (exists
         ~grouping:[ ("r", "A") ]
         [ bind "r" "R" ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              eq (attr "Q" "sm") (sum (attr "r" "B"));
              eq (attr "Q" "ct") (count (attr "r" "B"));
              eq (attr "Q" "mx") (max_ (attr "r" "B"));
            ]))
  in
  let result = Eval.run_rows ~db (program q) in
  check_rel
    (Relation.of_rows
       [ "A"; "sm"; "ct"; "mx" ]
       [ [ i 1; i 30; i 2; i 20 ]; [ i 2; i 6; i 1; i 6 ] ])
    result

(* Eq (2): correlated (lateral) nested comprehension *)
let lateral_nested () =
  let db =
    Database.of_list
      [
        ("X", Relation.of_rows [ "A" ] [ [ i 1 ]; [ i 5 ] ]);
        ("Y", Relation.of_rows [ "A" ] [ [ i 2 ]; [ i 6 ] ]);
      ]
  in
  let inner =
    collection "Z" [ "B" ]
      (exists [ bind "y" "Y" ]
         (conj
            [
              eq (attr "Z" "B") (attr "y" "A");
              lt (attr "x" "A") (attr "y" "A");
            ]))
  in
  let q =
    coll "Q" [ "A"; "B" ]
      (exists
         [ bind "x" "X"; bind_in "z" inner ]
         (conj
            [ eq (attr "Q" "A") (attr "x" "A"); eq (attr "Q" "B") (attr "z" "B") ]))
  in
  let result = Eval.run_rows ~db (program q) in
  check_rel
    (Relation.of_rows [ "A"; "B" ]
       [ [ i 1; i 2 ]; [ i 1; i 6 ]; [ i 5; i 6 ] ])
    result

(* negation: NOT EXISTS *)
let negation () =
  let q =
    coll "Q" [ "A" ]
      (exists [ bind "r" "R" ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              not_
                (exists [ bind "s" "S" ]
                   (eq (attr "r" "B") (attr "s" "B")));
            ]))
  in
  let result = Eval.run_rows ~db:db_rs (program q) in
  check_rel (Relation.of_rows [ "A" ] [ [ i 3 ] ]) result

(* disjunction = union *)
let disjunction () =
  let q =
    coll "Q" [ "X" ]
      (disj
         [
           exists [ bind "r" "R" ] (eq (attr "Q" "X") (attr "r" "A"));
           exists [ bind "s" "S" ] (eq (attr "Q" "X") (attr "s" "C"));
         ])
  in
  let result = Eval.run_rows ~db:db_rs (program q) in
  check_set
    (Relation.of_rows [ "X" ]
       [ [ i 1 ]; [ i 2 ]; [ i 3 ]; [ i 0 ]; [ i 5 ] ])
    result

(* sentences (Fig 9): boolean query with aggregate comparison *)
let sentence_aggregate () =
  let db =
    Database.of_list
      [
        ("R", Relation.of_rows [ "id"; "q" ] [ [ i 1; i 2 ] ]);
        ( "S",
          Relation.of_rows [ "id"; "d" ]
            [ [ i 1; s "a" ]; [ i 1; s "b" ]; [ i 1; s "c" ] ] );
      ]
  in
  (* (13): ∃r ∈ R[∃s ∈ S, γ∅[r.id = s.id ∧ r.q <= count(s.d)]] *)
  let sent =
    sentence
      (exists [ bind "r" "R" ]
         (exists ~grouping:group_all [ bind "s" "S" ]
            (conj
               [
                 eq (attr "r" "id") (attr "s" "id");
                 leq (attr "r" "q") (count (attr "s" "d"));
               ])))
  in
  Alcotest.(check bool)
    "2 <= count(3) holds" true
    (Eval.run_truth ~db (program sent) = B3.True);
  (* (14): ¬∃r ∈ R[∃s ∈ S, γ∅[r.id = s.id ∧ r.q > count(s.d)]] *)
  let sent2 =
    sentence
      (not_
         (exists [ bind "r" "R" ]
            (exists ~grouping:group_all [ bind "s" "S" ]
               (conj
                  [
                    eq (attr "r" "id") (attr "s" "id");
                    gt (attr "r" "q") (count (attr "s" "d"));
                  ]))))
  in
  Alcotest.(check bool)
    "no r exceeds its count" true
    (Eval.run_truth ~db (program sent2) = B3.True)

(* recursion (Eq 16): ancestor = LFP of parent ∪ parent∘ancestor *)
let recursion_ancestor () =
  let db =
    Database.of_list
      [
        ( "P",
          Relation.of_rows [ "s"; "t" ]
            [ [ i 1; i 2 ]; [ i 2; i 3 ]; [ i 3; i 4 ] ] );
      ]
  in
  let anc =
    define "A"
      (collection "A" [ "s"; "t" ]
         (disj
            [
              exists [ bind "p" "P" ]
                (conj
                   [
                     eq (attr "A" "s") (attr "p" "s");
                     eq (attr "A" "t") (attr "p" "t");
                   ]);
              exists
                [ bind "p" "P"; bind "a2" "A" ]
                (conj
                   [
                     eq (attr "A" "s") (attr "p" "s");
                     eq (attr "p" "t") (attr "a2" "s");
                     eq (attr "a2" "t") (attr "A" "t");
                   ]);
            ]))
  in
  let q =
    coll "Q" [ "s"; "t" ]
      (exists [ bind "a" "A" ]
         (conj
            [ eq (attr "Q" "s") (attr "a" "s"); eq (attr "Q" "t") (attr "a" "t") ]))
  in
  let result = Eval.run_rows ~db (program ~defs:[ anc ] q) in
  check_set
    (Relation.of_rows [ "s"; "t" ]
       [
         [ i 1; i 2 ]; [ i 2; i 3 ]; [ i 3; i 4 ];
         [ i 1; i 3 ]; [ i 2; i 4 ]; [ i 1; i 4 ];
       ])
    result

(* cyclic graph: LFP still terminates *)
let recursion_cycle () =
  let db =
    Database.of_list
      [ ("P", Relation.of_rows [ "s"; "t" ] [ [ i 1; i 2 ]; [ i 2; i 1 ] ]) ]
  in
  let anc =
    define "A"
      (collection "A" [ "s"; "t" ]
         (disj
            [
              exists [ bind "p" "P" ]
                (conj
                   [
                     eq (attr "A" "s") (attr "p" "s");
                     eq (attr "A" "t") (attr "p" "t");
                   ]);
              exists
                [ bind "p" "P"; bind "a2" "A" ]
                (conj
                   [
                     eq (attr "A" "s") (attr "p" "s");
                     eq (attr "p" "t") (attr "a2" "s");
                     eq (attr "a2" "t") (attr "A" "t");
                   ]);
            ]))
  in
  let q =
    coll "Q" [ "s"; "t" ]
      (exists [ bind "a" "A" ]
         (conj
            [ eq (attr "Q" "s") (attr "a" "s"); eq (attr "Q" "t") (attr "a" "t") ]))
  in
  let result = Eval.run_rows ~db (program ~defs:[ anc ] q) in
  check_set
    (Relation.of_rows [ "s"; "t" ]
       [ [ i 1; i 2 ]; [ i 2; i 1 ]; [ i 1; i 1 ]; [ i 2; i 2 ] ])
    result

(* the reference's naive fixpoint and the plan's delta rules agree *)
let naive_agrees_with_delta_rules () =
  let anc =
    define "A"
      (collection "A" [ "s"; "t" ]
         (disj
            [
              exists [ bind "p" "P" ]
                (conj
                   [
                     eq (attr "A" "s") (attr "p" "s");
                     eq (attr "A" "t") (attr "p" "t");
                   ]);
              exists
                [ bind "p" "P"; bind "a2" "A" ]
                (conj
                   [
                     eq (attr "A" "s") (attr "p" "s");
                     eq (attr "p" "t") (attr "a2" "s");
                     eq (attr "a2" "t") (attr "A" "t");
                   ]);
            ]))
  in
  let q =
    coll "Q" [ "s"; "t" ]
      (exists [ bind "a" "A" ]
         (conj
            [ eq (attr "Q" "s") (attr "a" "s"); eq (attr "Q" "t") (attr "a" "t") ]))
  in
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 15 do
    let edges =
      List.init
        (Random.State.int rng 12)
        (fun _ ->
          [ i (Random.State.int rng 7); i (Random.State.int rng 7) ])
    in
    let db = Database.of_list [ ("P", Relation.of_rows [ "s"; "t" ] edges) ] in
    let prog = program ~defs:[ anc ] q in
    let naive = Eval.run_rows ~db prog in
    let semi = Arc_engine.Exec.run_rows ~db prog in
    Alcotest.(check bool) "reference naive = plan seminaive" true
      (Relation.equal_set naive semi)
  done

(* doubly-recursive rule: A(x,y) :- A(x,z), A(z,y) — two delta occurrences *)
let recursion_nonlinear () =
  let db =
    Database.of_list
      [
        ( "P",
          Relation.of_rows [ "s"; "t" ]
            [ [ i 1; i 2 ]; [ i 2; i 3 ]; [ i 3; i 4 ]; [ i 4; i 5 ] ] );
      ]
  in
  let anc =
    define "A"
      (collection "A" [ "s"; "t" ]
         (disj
            [
              exists [ bind "p" "P" ]
                (conj
                   [
                     eq (attr "A" "s") (attr "p" "s");
                     eq (attr "A" "t") (attr "p" "t");
                   ]);
              exists
                [ bind "a1" "A"; bind "a2" "A" ]
                (conj
                   [
                     eq (attr "A" "s") (attr "a1" "s");
                     eq (attr "a1" "t") (attr "a2" "s");
                     eq (attr "a2" "t") (attr "A" "t");
                   ]);
            ]))
  in
  let q =
    coll "Q" [ "s"; "t" ]
      (exists [ bind "a" "A" ]
         (conj
            [ eq (attr "Q" "s") (attr "a" "s"); eq (attr "Q" "t") (attr "a" "t") ]))
  in
  let prog = program ~defs:[ anc ] q in
  let naive = Eval.run_rows ~db prog in
  let semi = Arc_engine.Exec.run_rows ~db prog in
  Alcotest.(check int) "closure of a 5-chain" 10 (Relation.cardinality semi);
  Alcotest.(check bool) "nonlinear recursion agrees" true
    (Relation.equal_set naive semi)

(* multiple aggregate kinds through the same grouping scope *)
let all_aggregate_kinds () =
  let db =
    Database.of_list
      [
        ( "R",
          Relation.of_rows [ "A"; "B" ]
            [ [ i 1; i 10 ]; [ i 1; i 10 ]; [ i 1; i 20 ]; [ i 2; V.Null ] ] );
      ]
  in
  let q =
    coll "Q" [ "A"; "sm"; "sd"; "ct"; "cd"; "av"; "mn"; "mx" ]
      (exists
         ~grouping:[ ("r", "A") ]
         [ bind "r" "R" ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              eq (attr "Q" "sm") (sum (attr "r" "B"));
              eq (attr "Q" "sd") (agg "sumdistinct" (attr "r" "B"));
              eq (attr "Q" "ct") (count (attr "r" "B"));
              eq (attr "Q" "cd") (agg "countdistinct" (attr "r" "B"));
              eq (attr "Q" "av") (avg (attr "r" "B"));
              eq (attr "Q" "mn") (min_ (attr "r" "B"));
              eq (attr "Q" "mx") (max_ (attr "r" "B"));
            ]))
  in
  (* bag conventions: the duplicate (1,10) row must count twice *)
  let result = Eval.run_rows ~conv:Conventions.sql ~db (program q) in
  check_rel
    (Relation.of_rows
       [ "A"; "sm"; "sd"; "ct"; "cd"; "av"; "mn"; "mx" ]
       [
         [ i 1; i 40; i 30; i 3; i 2; V.Float (40. /. 3.); i 10; i 20 ];
         (* group 2 has only a NULL: count 0, sum NULL (SQL convention) *)
         [ i 2; V.Null; V.Null; i 0; i 0; V.Null; V.Null; V.Null ];
       ])
    result

(* three-way join annotation: (R left S) left T *)
let nested_outer_joins () =
  let db =
    Database.of_list
      [
        ("R", Relation.of_rows [ "A" ] [ [ i 1 ]; [ i 2 ]; [ i 3 ] ]);
        ("S", Relation.of_rows [ "B" ] [ [ i 1 ]; [ i 2 ] ]);
        ("T", Relation.of_rows [ "C" ] [ [ i 2 ] ]);
      ]
  in
  let q =
    coll "Q" [ "A"; "B"; "C" ]
      (exists
         ~join:(J_left (J_left (J_var "r", J_var "s"), J_var "t"))
         [ bind "r" "R"; bind "s" "S"; bind "t" "T" ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              eq (attr "Q" "B") (attr "s" "B");
              eq (attr "Q" "C") (attr "t" "C");
              eq (attr "r" "A") (attr "s" "B");
              eq (attr "s" "B") (attr "t" "C");
            ]))
  in
  let result = Eval.run_rows ~conv:Conventions.sql ~db (program q) in
  check_rel
    (Relation.of_rows [ "A"; "B"; "C" ]
       [
         [ i 1; i 1; V.Null ];
         [ i 2; i 2; i 2 ];
         [ i 3; V.Null; V.Null ];
       ])
    result

(* engine error paths produce Eval_error, not crashes *)
let engine_errors () =
  let expect_error name prog =
    match Eval.run ~db:db_rs prog with
    | exception Eval.Eval_error _ -> ()
    | _ -> Alcotest.failf "%s: expected Eval_error" name
  in
  expect_error "unknown relation"
    (program
       (coll "Q" [ "A" ]
          (exists [ bind "r" "NoSuch" ] (eq (attr "Q" "A") (attr "r" "A")))));
  expect_error "unassigned head attribute"
    (program
       (coll "Q" [ "A"; "B" ]
          (exists [ bind "r" "R" ] (eq (attr "Q" "A") (attr "r" "A")))));
  expect_error "unseeded external"
    (program
       (coll "Q" [ "A" ]
          (exists [ bind "f" "Minus" ] (eq (attr "Q" "A") (attr "f" "out")))));
  expect_error "unstratifiable ARC recursion"
    (program
       ~defs:
         [
           define "T"
             (collection "T" [ "x" ]
                (exists [ bind "r" "R" ]
                   (conj
                      [
                        eq (attr "T" "x") (attr "r" "A");
                        not_
                          (exists [ bind "t" "T" ]
                             (eq (attr "t" "x") (attr "r" "A")));
                      ])));
         ]
       (coll "Q" [ "x" ]
          (exists [ bind "t" "T" ] (eq (attr "Q" "x") (attr "t" "x")))))

(* outer joins (Section 2.11): left join with NULL padding *)
let left_join () =
  let db =
    Database.of_list
      [
        ("R", Relation.of_rows [ "A" ] [ [ i 1 ]; [ i 2 ] ]);
        ("S", Relation.of_rows [ "B" ] [ [ i 1 ] ]);
      ]
  in
  let q =
    coll "Q" [ "A"; "B" ]
      (exists
         ~join:(J_left (J_var "r", J_var "s"))
         [ bind "r" "R"; bind "s" "S" ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              eq (attr "Q" "B") (attr "s" "B");
              eq (attr "r" "A") (attr "s" "B");
            ]))
  in
  let result = Eval.run_rows ~db (program q) in
  check_rel
    (Relation.of_rows [ "A"; "B" ] [ [ i 1; i 1 ]; [ i 2; V.Null ] ])
    result

(* full outer join *)
let full_join () =
  let db =
    Database.of_list
      [
        ("R", Relation.of_rows [ "A" ] [ [ i 1 ]; [ i 2 ] ]);
        ("S", Relation.of_rows [ "B" ] [ [ i 1 ]; [ i 9 ] ]);
      ]
  in
  let q =
    coll "Q" [ "A"; "B" ]
      (exists
         ~join:(J_full (J_var "r", J_var "s"))
         [ bind "r" "R"; bind "s" "S" ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              eq (attr "Q" "B") (attr "s" "B");
              eq (attr "r" "A") (attr "s" "B");
            ]))
  in
  let result = Eval.run_rows ~db (program q) in
  check_rel
    (Relation.of_rows [ "A"; "B" ]
       [ [ i 1; i 1 ]; [ i 2; V.Null ]; [ V.Null; i 9 ] ])
    result

(* Eq (18): left(r, inner(11, s)) — the literal-leaf cross join *)
let outer_join_literal () =
  let db =
    Database.of_list
      [
        ( "R",
          Relation.of_rows [ "m"; "y"; "h" ]
            [ [ s "r1"; i 2000; i 11 ]; [ s "r2"; i 2001; i 12 ] ] );
        ( "S",
          Relation.of_rows [ "n"; "y" ]
            [ [ s "s1"; i 2000 ]; [ s "s2"; i 2001 ] ] );
      ]
  in
  let q =
    coll "Q" [ "m"; "n" ]
      (exists
         ~join:(J_left (J_var "r", J_inner [ J_lit (i 11); J_var "s" ]))
         [ bind "r" "R"; bind "s" "S" ]
         (conj
            [
              eq (attr "Q" "m") (attr "r" "m");
              eq (attr "Q" "n") (attr "s" "n");
              eq (attr "r" "y") (attr "s" "y");
              eq (attr "r" "h") (cint 11);
            ]))
  in
  let result = Eval.run_rows ~db (program q) in
  (* r1 (h=11) matches s1 on year; r2 (h=12) is kept but NULL-padded because
     r.h = 11 is a join condition, not a filter *)
  check_rel
    (Relation.of_rows [ "m"; "n" ]
       [ [ s "r1"; s "s1" ]; [ s "r2"; V.Null ] ])
    result

(* external relations (Eqs 19-21): Minus and Bigger via access patterns *)
let external_relations () =
  let db =
    Database.of_list
      [
        ("R", Relation.of_rows [ "A"; "B" ] [ [ i 1; i 10 ]; [ i 2; i 3 ] ]);
        ("S", Relation.of_rows [ "B" ] [ [ i 4 ] ]);
        ("T", Relation.of_rows [ "B" ] [ [ i 5 ] ]);
      ]
  in
  (* (19) direct arithmetic: Q(A) s.t. r.B - s.B > t.B *)
  let q19 =
    coll "Q" [ "A" ]
      (exists
         [ bind "r" "R"; bind "s" "S"; bind "t" "T" ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              gt (sub (attr "r" "B") (attr "s" "B")) (attr "t" "B");
            ]))
  in
  (* (20) relationalized Minus *)
  let q20 =
    coll "Q" [ "A" ]
      (exists
         [ bind "r" "R"; bind "s" "S"; bind "t" "T"; bind "f" "Minus" ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              eq (attr "f" "left") (attr "r" "B");
              eq (attr "f" "right") (attr "s" "B");
              gt (attr "f" "out") (attr "t" "B");
            ]))
  in
  (* (21) fully relationalized: equijoin with Bigger *)
  let q21 =
    coll "Q" [ "A" ]
      (exists
         [
           bind "r" "R"; bind "s" "S"; bind "t" "T";
           bind "f" "Minus"; bind "g" "Bigger";
         ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              eq (attr "f" "left") (attr "r" "B");
              eq (attr "f" "right") (attr "s" "B");
              eq (attr "f" "out") (attr "g" "left");
              eq (attr "g" "right") (attr "t" "B");
            ]))
  in
  let expected = Relation.of_rows [ "A" ] [ [ i 1 ] ] in
  check_rel ~msg:"eq19" expected (Eval.run_rows ~db (program q19));
  check_rel ~msg:"eq20" expected (Eval.run_rows ~db (program q20));
  check_rel ~msg:"eq21" expected (Eval.run_rows ~db (program q21))

(* conventions (Eq 15): sum over empty group — Soufflé 0 vs SQL NULL *)
let convention_agg_empty () =
  let db =
    Database.of_list
      [
        ("R", Relation.of_rows [ "ak"; "b" ] [ [ i 1; i 2 ] ]);
        ("S", Relation.empty [ "a"; "b" ]);
      ]
  in
  let inner =
    collection "X" [ "sm" ]
      (exists ~grouping:group_all [ bind "s2" "S" ]
         (conj
            [
              lt (attr "s2" "a") (attr "r" "ak");
              eq (attr "X" "sm") (sum (attr "s2" "b"));
            ]))
  in
  let q =
    coll "Q" [ "ak"; "sm" ]
      (exists
         [ bind "r" "R"; bind_in "x" inner ]
         (conj
            [
              eq (attr "Q" "ak") (attr "r" "ak");
              eq (attr "Q" "sm") (attr "x" "sm");
            ]))
  in
  let souffle = Eval.run_rows ~conv:Conventions.souffle ~db (program q) in
  check_rel ~msg:"souffle derives Q(1,0)"
    (Relation.of_rows [ "ak"; "sm" ] [ [ i 1; i 0 ] ])
    souffle;
  let sql = Eval.run_rows ~conv:Conventions.sql_set ~db (program q) in
  check_rel ~msg:"SQL derives (1, NULL)"
    (Relation.of_rows [ "ak"; "sm" ] [ [ i 1; V.Null ] ])
    sql

(* Section 2.7: nested vs unnested under set and bag semantics *)
let set_bag_unnesting () =
  let db =
    Database.of_list
      [
        ("R", Relation.of_rows [ "A"; "B" ] [ [ i 1; i 7 ] ]);
        ("S", Relation.of_rows [ "B" ] [ [ i 7 ]; [ i 7 ] ]);
      ]
  in
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
  let set_n = Eval.run_rows ~conv:Conventions.sql_set ~db (program nested) in
  let set_u = Eval.run_rows ~conv:Conventions.sql_set ~db (program unnested) in
  Alcotest.(check bool) "equal under set" true (Relation.equal_set set_n set_u);
  let bag_n = Eval.run_rows ~conv:Conventions.sql ~db (program nested) in
  let bag_u = Eval.run_rows ~conv:Conventions.sql ~db (program unnested) in
  Alcotest.(check int) "nested: once per r" 1 (Relation.cardinality bag_n);
  Alcotest.(check int) "unnested: once per pair" 2 (Relation.cardinality bag_u)

(* NULLs and NOT IN (Eq 17) under 2VL with explicit null checks *)
let not_in_nulls () =
  let db =
    Database.of_list
      [
        ("R", Relation.of_rows [ "A" ] [ [ i 1 ]; [ i 2 ] ]);
        ("S", Relation.of_rows [ "A" ] [ [ i 1 ]; [ V.Null ] ]);
      ]
  in
  let q =
    coll "Q" [ "A" ]
      (exists [ bind "r" "R" ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              not_
                (exists [ bind "s" "S" ]
                   (disj
                      [
                        eq (attr "s" "A") (attr "r" "A");
                        is_null (attr "s" "A");
                        is_null (attr "r" "A");
                      ]));
            ]))
  in
  (* the explicit-null-check rewrite returns the empty set, replicating
     SQL's NOT IN behavior, even under two-valued logic *)
  let result = Eval.run_rows ~conv:Conventions.classical ~db (program q) in
  Alcotest.(check int) "empty because S contains NULL" 0
    (Relation.cardinality result);
  (* without the null checks, 2VL NOT EXISTS returns {2} *)
  let q2 =
    coll "Q" [ "A" ]
      (exists [ bind "r" "R" ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              not_
                (exists [ bind "s" "S" ] (eq (attr "s" "A") (attr "r" "A")));
            ]))
  in
  let result2 = Eval.run_rows ~conv:Conventions.classical ~db (program q2) in
  check_rel (Relation.of_rows [ "A" ] [ [ i 2 ] ]) result2

(* deduplication via grouping on all attributes (Section 2.7) *)
let dedup_via_grouping () =
  let db =
    Database.of_list
      [
        ( "R",
          Relation.of_rows [ "A"; "B" ]
            [ [ i 1; i 2 ]; [ i 1; i 2 ]; [ i 3; i 4 ] ] );
      ]
  in
  let q =
    coll "Q" [ "A"; "B" ]
      (exists
         ~grouping:[ ("r", "A"); ("r", "B") ]
         [ bind "r" "R" ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              eq (attr "Q" "B") (attr "r" "B");
            ]))
  in
  (* even under bag semantics, grouping on all attributes deduplicates *)
  let result = Eval.run_rows ~conv:Conventions.sql ~db (program q) in
  check_rel
    (Relation.of_rows [ "A"; "B" ] [ [ i 1; i 2 ]; [ i 3; i 4 ] ])
    result

(* regression: group keys are canonical serializations, so string values
   that would collide under naive concatenation stay in separate groups *)
let grouping_key_collisions () =
  let db =
    Database.of_list
      [
        ( "R",
          Relation.of_rows [ "A"; "B" ]
            [
              [ s "ab"; s "c" ]; [ s "ab"; s "c" ];
              [ s "a"; s "bc" ];
              [ s "x'|y"; s "z" ]; [ s "x"; s "'|y'z" ];
            ] );
      ]
  in
  let q =
    coll "Q" [ "A"; "B"; "n" ]
      (exists
         ~grouping:[ ("r", "A"); ("r", "B") ]
         [ bind "r" "R" ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              eq (attr "Q" "B") (attr "r" "B");
              eq (attr "Q" "n") (count (attr "r" "A"));
            ]))
  in
  let result = Eval.run_rows ~conv:Conventions.sql ~db (program q) in
  check_rel
    (Relation.of_rows [ "A"; "B"; "n" ]
       [
         [ s "ab"; s "c"; i 2 ];
         [ s "a"; s "bc"; i 1 ];
         [ s "x'|y"; s "z"; i 1 ];
         [ s "x"; s "'|y'z"; i 1 ];
       ])
    result

(* abstract relations (Example 2): Subset over drinkers *)
let unique_set_abstract () =
  let likes =
    Relation.of_rows
      [ "d"; "b" ]
      [
        [ s "ann"; s "ipa" ]; [ s "ann"; s "stout" ];
        [ s "bob"; s "ipa" ]; [ s "bob"; s "stout" ];
        [ s "cal"; s "ipa" ];
      ]
  in
  let db = Database.of_list [ ("L", likes) ] in
  (* Subset(left,right): drinker left's beers ⊆ drinker right's beers *)
  let subset =
    define "Subset"
      (collection "Subset" [ "left"; "right" ]
         (not_
            (exists [ bind "l3" "L" ]
               (conj
                  [
                    eq (attr "l3" "d") (attr "Subset" "left");
                    not_
                      (exists [ bind "l4" "L" ]
                         (conj
                            [
                              eq (attr "l4" "b") (attr "l3" "b");
                              eq (attr "l4" "d") (attr "Subset" "right");
                            ]));
                  ]))))
  in
  (* drinkers with a unique set of beers, via the abstract module (Eq 24) *)
  let q =
    coll "Q" [ "d" ]
      (exists [ bind "l1" "L" ]
         (conj
            [
              eq (attr "Q" "d") (attr "l1" "d");
              not_
                (exists
                   [ bind "l2" "L"; bind "s1" "Subset"; bind "s2" "Subset" ]
                   (conj
                      [
                        neq (attr "l2" "d") (attr "l1" "d");
                        eq (attr "s1" "left") (attr "l1" "d");
                        eq (attr "s1" "right") (attr "l2" "d");
                        eq (attr "s2" "left") (attr "l2" "d");
                        eq (attr "s2" "right") (attr "l1" "d");
                      ]));
            ]))
  in
  let result = Eval.run_rows ~db (program ~defs:[ subset ] q) in
  (* ann and bob share {ipa, stout}; cal's {ipa} is unique *)
  check_set (Relation.of_rows [ "d" ] [ [ s "cal" ] ]) result

(* the count bug (Section 3.2, Eqs 27-29) on R(9,0), S = ∅ *)
let count_bug () =
  let db =
    Database.of_list
      [
        ("R", Relation.of_rows [ "id"; "q" ] [ [ i 9; i 0 ] ]);
        ("S", Relation.empty [ "id"; "d" ]);
      ]
  in
  (* (27) original: aggregate used as comparison inside correlated scope *)
  let q27 =
    coll "Q" [ "id" ]
      (exists [ bind "r" "R" ]
         (conj
            [
              eq (attr "Q" "id") (attr "r" "id");
              exists ~grouping:group_all [ bind "s" "S" ]
                (conj
                   [
                     eq (attr "r" "id") (attr "s" "id");
                     eq (attr "r" "q") (count (attr "s" "d"));
                   ]);
            ]))
  in
  (* (28) incorrect decorrelation (Kim): group S by id, then join *)
  let x28 =
    collection "X" [ "id"; "ct" ]
      (exists
         ~grouping:[ ("s", "id") ]
         [ bind "s" "S" ]
         (conj
            [
              eq (attr "X" "id") (attr "s" "id");
              eq (attr "X" "ct") (count (attr "s" "d"));
            ]))
  in
  let q28 =
    coll "Q" [ "id" ]
      (exists
         [ bind "r" "R"; bind_in "x" x28 ]
         (conj
            [
              eq (attr "Q" "id") (attr "r" "id");
              eq (attr "r" "id") (attr "x" "id");
              eq (attr "r" "q") (attr "x" "ct");
            ]))
  in
  (* (29) correct decorrelation: left join before grouping *)
  let x29 =
    collection "X" [ "id"; "ct" ]
      (exists
         ~grouping:[ ("r2", "id") ]
         ~join:(J_left (J_var "r2", J_var "s"))
         [ bind "s" "S"; bind "r2" "R" ]
         (conj
            [
              eq (attr "X" "id") (attr "r2" "id");
              eq (attr "X" "ct") (count (attr "s" "d"));
              eq (attr "r2" "id") (attr "s" "id");
            ]))
  in
  let q29 =
    coll "Q" [ "id" ]
      (exists
         [ bind "r" "R"; bind_in "x" x29 ]
         (conj
            [
              eq (attr "Q" "id") (attr "r" "id");
              eq (attr "r" "id") (attr "x" "id");
              eq (attr "r" "q") (attr "x" "ct");
            ]))
  in
  let r27 = Eval.run_rows ~db (program q27) in
  let r28 = Eval.run_rows ~db (program q28) in
  let r29 = Eval.run_rows ~db (program q29) in
  check_rel ~msg:"(27) returns 9" (Relation.of_rows [ "id" ] [ [ i 9 ] ]) r27;
  Alcotest.(check int) "(28) loses the row — the count bug" 0
    (Relation.cardinality r28);
  check_rel ~msg:"(29) returns 9" (Relation.of_rows [ "id" ] [ [ i 9 ] ]) r29

(* FIO vs FOI (Eqs 3 vs 7) agree under set semantics *)
let fio_foi_agree () =
  let db =
    Database.of_list
      [
        ( "R",
          Relation.of_rows [ "A"; "B" ]
            [ [ i 1; i 10 ]; [ i 1; i 20 ]; [ i 2; i 5 ] ] );
      ]
  in
  let fio =
    coll "Q" [ "A"; "sm" ]
      (exists
         ~grouping:[ ("r", "A") ]
         [ bind "r" "R" ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              eq (attr "Q" "sm") (sum (attr "r" "B"));
            ]))
  in
  let inner =
    collection "X" [ "sm" ]
      (exists ~grouping:group_all [ bind "r2" "R" ]
         (conj
            [
              eq (attr "r2" "A") (attr "r" "A");
              eq (attr "X" "sm") (sum (attr "r2" "B"));
            ]))
  in
  let foi =
    coll "Q" [ "A"; "sm" ]
      (exists
         [ bind "r" "R"; bind_in "x" inner ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              eq (attr "Q" "sm") (attr "x" "sm");
            ]))
  in
  let r_fio = Eval.run_rows ~db (program fio) in
  let r_foi = Eval.run_rows ~db (program foi) in
  Alcotest.(check bool) "FIO = FOI (set semantics)" true
    (Relation.equal_set r_fio r_foi)

(* HAVING as outer selection (Eq 8) *)
let having_eq8 () =
  let db =
    Database.of_list
      [
        ( "R",
          Relation.of_rows [ "empl"; "dept" ]
            [ [ s "e1"; s "d1" ]; [ s "e2"; s "d1" ]; [ s "e3"; s "d2" ] ] );
        ( "S",
          Relation.of_rows [ "empl"; "sal" ]
            [ [ s "e1"; i 60 ]; [ s "e2"; i 60 ]; [ s "e3"; i 50 ] ] );
      ]
  in
  let x =
    collection "X" [ "dept"; "av"; "sm" ]
      (exists
         ~grouping:[ ("r", "dept") ]
         [ bind "r" "R"; bind "s" "S" ]
         (conj
            [
              eq (attr "X" "dept") (attr "r" "dept");
              eq (attr "X" "av") (avg (attr "s" "sal"));
              eq (attr "X" "sm") (sum (attr "s" "sal"));
              eq (attr "r" "empl") (attr "s" "empl");
            ]))
  in
  let q =
    coll "Q" [ "dept"; "av" ]
      (exists [ bind_in "x" x ]
         (conj
            [
              eq (attr "Q" "dept") (attr "x" "dept");
              eq (attr "Q" "av") (attr "x" "av");
              gt (attr "x" "sm") (cint 100);
            ]))
  in
  let result = Eval.run_rows ~db (program q) in
  (* d1 pays 120 total (avg 60); d2 pays 50 only *)
  check_rel
    (Relation.of_rows [ "dept"; "av" ] [ [ s "d1"; V.Float 60. ] ])
    result

(* matrix multiplication (Eq 26) *)
let matrix_mult () =
  (* A = [[1,2],[3,4]], B = [[5,6],[7,8]] sparse form *)
  let mat name rows =
    ( name,
      Relation.of_rows [ "row"; "col"; "val" ]
        (List.concat_map
           (fun (r, cs) ->
             List.map (fun (c, v) -> [ i r; i c; i v ]) cs)
           rows) )
  in
  let db =
    Database.of_list
      [
        mat "A" [ (1, [ (1, 1); (2, 2) ]); (2, [ (1, 3); (2, 4) ]) ];
        mat "B" [ (1, [ (1, 5); (2, 6) ]); (2, [ (1, 7); (2, 8) ]) ];
      ]
  in
  let q =
    coll "C" [ "row"; "col"; "val" ]
      (exists
         ~grouping:[ ("a", "row"); ("b", "col") ]
         [ bind "a" "A"; bind "b" "B" ]
         (conj
            [
              eq (attr "C" "row") (attr "a" "row");
              eq (attr "C" "col") (attr "b" "col");
              eq (attr "a" "col") (attr "b" "row");
              eq (attr "C" "val") (sum (mul (attr "a" "val") (attr "b" "val")));
            ]))
  in
  let result = Eval.run_rows ~db (program q) in
  check_rel
    (Relation.of_rows [ "row"; "col"; "val" ]
       [
         [ i 1; i 1; i 19 ]; [ i 1; i 2; i 22 ];
         [ i 2; i 1; i 43 ]; [ i 2; i 2; i 50 ];
       ])
    result

(* scalar-subquery ≡ lateral, but LEFT JOIN + GROUP BY differs under bag
   semantics with duplicate outer rows (Fig 13) *)
let fig13_counterexample () =
  let db =
    Database.of_list
      [
        ("R", Relation.of_rows [ "A" ] [ [ i 1 ]; [ i 1 ] ]);
        ("S", Relation.of_rows [ "A"; "B" ] [ [ i 0; i 10 ] ]);
      ]
  in
  (* lateral form (Fig 13b): one output row per R tuple *)
  let inner =
    collection "X" [ "sm" ]
      (exists ~grouping:group_all [ bind "s" "S" ]
         (conj
            [
              lt (attr "s" "A") (attr "r" "A");
              eq (attr "X" "sm") (sum (attr "s" "B"));
            ]))
  in
  let lateral =
    coll "Q" [ "A"; "sm" ]
      (exists
         [ bind "r" "R"; bind_in "x" inner ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              eq (attr "Q" "sm") (attr "x" "sm");
            ]))
  in
  (* left-join + group-by form (Fig 13c): collapses duplicate R rows *)
  let leftjoin =
    coll "Q" [ "A"; "sm" ]
      (exists
         ~grouping:[ ("r", "A") ]
         ~join:(J_left (J_var "r", J_var "s"))
         [ bind "r" "R"; bind "s" "S" ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              eq (attr "Q" "sm") (sum (attr "s" "B"));
              lt (attr "s" "A") (attr "r" "A");
            ]))
  in
  let r_lat = Eval.run_rows ~conv:Conventions.sql ~db (program lateral) in
  let r_lj = Eval.run_rows ~conv:Conventions.sql ~db (program leftjoin) in
  Alcotest.(check int) "lateral keeps both duplicate rows" 2
    (Relation.cardinality r_lat);
  Alcotest.(check int) "left join + group by collapses them" 1
    (Relation.cardinality r_lj)

(* The TC ladder: eq16 over a chain of n edges has n(n+1)/2 output rows.
   Each seminaive round appends its delta to the accumulated closure, so
   the allocation per output row must stay flat as the chain grows; an
   accumulator that copied the closure every round would grow it with the
   chain (2.8x from 48 to 384). Allocation is deterministic, so the bound
   is exact, not a timing. *)
let tc_ladder_flat () =
  let module Exec = Arc_engine.Exec in
  let module Data = Arc_catalog.Data in
  let words_per_row n =
    let db =
      Database.of_list
        [
          ( "P",
            Relation.of_rows [ "s"; "t" ]
              (List.init n (fun k -> [ i k; i (k + 1) ])) );
        ]
    in
    let prog = { defs = Data.eq16_defs; main = Coll Data.eq16_main } in
    let w0 = Gc.minor_words () in
    let r = Exec.run_rows ~db prog in
    let w = Gc.minor_words () -. w0 in
    Alcotest.(check int)
      (Printf.sprintf "closure of a %d-chain" n)
      (n * (n + 1) / 2)
      (Relation.cardinality r);
    w /. float_of_int (Relation.cardinality r)
  in
  let small = words_per_row 48 and large = words_per_row 384 in
  if large > 1.5 *. small then
    Alcotest.failf
      "minor words per output row: %.0f at chain 384 > 1.5 x %.0f at chain 48"
      large small

(* Which rows are the same: the plan engine's hash tables (join, semi and
   anti join, grouping, set dedup, the fixpoint's accumulator index and its
   persistent join tables) key on typed values, the reference evaluator's
   grouping on canonical strings. On NULL keys and Int/Float mixes
   (1 = 1.0, -0.0 = 0, 2.5) both engines must agree under every
   convention: a 3VL NULL key matches nothing, a 2VL one matches NULL.
   Results compare as bags of canonical tuple keys, so which of two equal
   representatives (Int 1 or Float 1.0) a set keeps does not matter. *)
let key_semantics_parity () =
  let module Exec = Arc_engine.Exec in
  let module Tuple = Arc_relation.Tuple in
  let f = V.float in
  let db =
    Database.of_list
      [
        ( "R",
          Relation.of_rows [ "k"; "a" ]
            [
              [ i 1; s "r1" ]; [ f 2.0; s "r2" ]; [ V.Null; s "r3" ];
              [ f 2.5; s "r4" ]; [ f (-0.0); s "r5" ]; [ i 3; s "r6" ];
              [ i 1; s "r7" ]; [ V.Null; s "r8" ];
            ] );
        ( "S",
          Relation.of_rows [ "k"; "c" ]
            [
              [ f 1.0; s "s1" ]; [ i 2; s "s2" ]; [ V.Null; s "s3" ];
              [ i 0; s "s4" ]; [ f 2.5; s "s5" ]; [ f 1.0; s "s6" ];
            ] );
        (* a chain whose hops meet only through Int/Float equal keys, and
           through NULL under 2VL *)
        ( "E",
          Relation.of_rows [ "s"; "t" ]
            [
              [ i 1; f 2.0 ]; [ i 2; i 3 ]; [ f 3.0; V.Null ];
              [ V.Null; i 5 ]; [ f 5.0; f (-0.0) ]; [ i 0; i 7 ];
            ] );
      ]
  in
  let queries =
    [
      ( "hash join",
        "{Q(a, c) | exists r in R, s in S[r.k = s.k and Q.a = r.a and Q.c = \
         s.c]}" );
      ( "semi join",
        "{Q(a) | exists r in R[Q.a = r.a and exists s in S[s.k = r.k]]}" );
      ( "anti join",
        "{Q(a) | exists r in R[Q.a = r.a and not exists s in S[s.k = r.k]]}" );
      ( "group-by",
        "{Q(k, n) | exists r in R, gamma_{r.k} [Q.k = r.k and Q.n = \
         count(r.a)]}" );
      ( "dedup",
        "{Q(k) | exists r in R[Q.k = r.k] or exists s in S[Q.k = s.k]}" );
      ( "recursion",
        "def A := {A(s, t) | exists e in E[A.s = e.s and A.t = e.t] or exists \
         e in E, b in A[A.s = e.s and e.t = b.s and b.t = A.t]} {Q(s, t) | \
         exists a in A[Q.s = a.s and Q.t = a.t]}" );
    ]
  in
  let bag r = List.sort compare (List.map Tuple.key (Relation.tuples r)) in
  List.iter
    (fun (name, text) ->
      let prog = Arc_syntax.Parser.program_of_string text in
      List.iter
        (fun (cn, conv) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s, %s" name cn)
            (bag (Eval.run_rows ~conv ~db prog))
            (bag (Exec.run_rows ~conv ~db prog)))
        [
          ("sql", Conventions.sql);
          ("sql_set", Conventions.sql_set);
          ("souffle", Conventions.souffle);
          ("2vl bag", { Conventions.sql with null_logic = Two_valued });
        ])
    queries;
  (* the keys do what the comment above says, not just the same thing in
     both engines *)
  let prog text = Arc_syntax.Parser.program_of_string text in
  let card conv text =
    Relation.cardinality (Exec.run_rows ~conv ~db (prog text))
  in
  let join = snd (List.hd queries) and recursion = snd (List.nth queries 5) in
  Alcotest.(check int) "3VL join: 1 = 1.0, 2.0 = 2, 2.5, -0.0 = 0" 7
    (card Conventions.sql join);
  Alcotest.(check int) "2VL join: and NULL = NULL" 9
    (card { Conventions.sql with null_logic = Two_valued } join);
  Alcotest.(check int) "3VL closure stops at NULL" 12
    (card Conventions.sql_set recursion);
  Alcotest.(check int) "2VL closure crosses NULL" 21
    (card Conventions.souffle recursion)

(* The plan engine's rows are positional: each node fixes the order of
   the variables its rows bind, and compiles its terms, predicates and
   keys against that layout. These are the shapes where a layout is not
   just its input's: outer-join appends whose branches bind variables in
   different orders, prunes, recursive rules whose persistent join table
   is built from the left side, a lateral re-run per outer row that reads
   the outer row's attributes through a non-equality, scalar terms in
   join keys, HAVING over a grouped join, an external binding resolved
   by name, and NULL keys. Plan = reference under all 8 conventions,
   errors included. *)
let all_conventions =
  List.concat_map
    (fun cs ->
      List.concat_map
        (fun nl ->
          List.map
            (fun ae ->
              Conventions.{ collection = cs; null_logic = nl; agg_empty = ae })
            [ Conventions.Agg_null; Conventions.Agg_zero ])
        [ Conventions.Two_valued; Conventions.Three_valued ])
    [ Conventions.Set; Conventions.Bag ]

(* every pipeline node of a program plan *)
let plan_nodes (pp : Arc_plan.Ir.program_plan) =
  let module Ir = Arc_plan.Ir in
  let rec nodes (t : Ir.t) =
    t
    ::
    (match t with
    | Ir.One | Ir.Scan _ -> []
    | Ir.Subquery { plan; _ } -> coll plan
    | Ir.Lateral { input; plan; _ } -> nodes input @ coll plan
    | Ir.Product { left; right } | Ir.Hash_join { left; right; _ } ->
        nodes left @ nodes right
    | Ir.Filter { input; _ }
    | Ir.Residual { input; _ }
    | Ir.Resolve { input; _ }
    | Ir.Prune { input; _ } ->
        nodes input
    | Ir.Semi { input; sub; _ } -> nodes input @ nodes sub
    | Ir.Append ts -> List.concat_map nodes ts)
  and coll (p : Ir.coll_plan) =
    List.concat_map
      (function Ir.Project { input; _ } | Ir.Aggregate { input; _ } -> nodes input)
      p.disjuncts
  in
  List.concat_map
    (function
      | Ir.Nonrecursive dp -> coll dp.Ir.dplan
      | Ir.Recursive dps -> List.concat_map (fun dp -> coll dp.Ir.dplan) dps)
    pp.strata
  @ match pp.main with Ir.Main_coll p -> coll p | Ir.Main_sentence _ -> []

let layout_db =
  let f = V.float in
  Database.of_list
    [
      ( "R",
        Relation.of_rows [ "k"; "a" ]
          [
            [ i 1; s "r1" ]; [ f 2.0; s "r2" ]; [ V.Null; s "r3" ];
            [ i 3; s "r4" ]; [ i 1; s "r5" ]; [ f 2.5; s "r6" ];
          ] );
      ( "S",
        Relation.of_rows [ "k"; "c" ]
          [
            [ f 1.0; i 5 ]; [ i 2; i 6 ]; [ V.Null; i 7 ]; [ i 4; V.Null ];
            [ i 3; f 6.0 ]; [ i 2; i 9 ];
          ] );
      ( "T",
        Relation.of_rows [ "c"; "d" ]
          [ [ i 5; i 1 ]; [ f 6.0; i 2 ]; [ i 9; V.Null ]; [ V.Null; i 4 ] ] );
      ( "P",
        Relation.of_rows [ "s"; "t" ]
          [
            [ i 1; i 2 ]; [ i 2; f 3.0 ]; [ i 3; i 4 ]; [ i 4; i 1 ];
            [ V.Null; i 2 ]; [ i 4; V.Null ]; [ f 5.0; i 6 ];
          ] );
    ]

let layout_parity () =
  let module Exec = Arc_engine.Exec in
  let module Ir = Arc_plan.Ir in
  let module Tuple = Arc_relation.Tuple in
  let tc rule =
    "def A := {A(s, t) | exists p in P[A.s = p.s and A.t = p.t] or " ^ rule
    ^ "} {Q(s, t) | exists a in A[Q.s = a.s and Q.t = a.t]}"
  in
  let component_free (t : Ir.t) =
    List.for_all
      (function Ir.Scan { rel; _ } -> rel <> "A" | _ -> true)
      (plan_nodes
         { Ir.strata = [];
           main =
             Ir.Main_coll
               { head = { head_name = "x"; head_attrs = [] };
                 disjuncts = [ Ir.Project { input = t; assigns = [] } ] } })
  in
  let cases =
    [
      ( "outer-join pads",
        "{Q(a, c, d) | exists r in R, s in S, t in T, full(r, left(s, t))[r.k \
         = s.k and s.c = t.c and Q.a = r.a and Q.c = s.c and Q.d = t.d]}",
        function
        | Ir.Append (b :: bs) ->
            List.exists (fun b' -> Ir.bound_vars b' <> Ir.bound_vars b) bs
        | _ -> false );
      ( "prune",
        "{Q(a, d) | exists r in R, s in S, t in T[r.k = s.k and s.c = t.c and \
         Q.a = r.a and Q.d = t.d]}",
        function Ir.Prune _ -> true | _ -> false );
      ( "recursive rule, stable left side",
        tc
          "exists p in P, q in P, b in A[A.s = p.s and p.t = q.s and q.t = \
           b.s and b.t = A.t]",
        function
        | Ir.Hash_join { left; right; _ } ->
            component_free left && not (component_free right)
        | _ -> false );
      ( "correlated lateral, non-equality",
        "{Q(a, n) | exists r in R, c in {C(n) | exists s in S, gamma_0[s.k < \
         r.k and C.n = count(s.c)]}[Q.a = r.a and Q.n = c.n]}",
        function Ir.Lateral _ -> true | _ -> false );
      ( "scalar join key",
        "{Q(a, c) | exists r in R, s in S[r.k + 1 = s.k and Q.a = r.a and Q.c \
         = s.c]}",
        function
        | Ir.Hash_join { keys; _ } ->
            List.exists
              (fun k ->
                match (k.Ir.outer, k.Ir.inner) with
                | Scalar _, _ | _, Scalar _ -> true
                | _ -> false)
              keys
        | _ -> false );
      ( "having over a grouped join",
        "{Q(k, n) | exists r in R, s in S, gamma_{r.k}[r.k = s.k and Q.k = r.k \
         and Q.n = sum(s.c) and count(s.c) >= 1]}",
        function Ir.Hash_join _ -> true | _ -> false );
      ( "external binding",
        "{Q(a, x) | exists r in R, f in \"Add\"[r.k = 1 and f.left = r.k and \
         f.right = 1 and Q.a = r.a and Q.x = f.out]}",
        function Ir.Resolve _ -> true | _ -> false );
      ( "NULL keys",
        "{Q(a, n) | exists r in R, s in S, gamma_{r.a}[r.k = s.k and Q.a = \
         r.a and Q.n = count(s.c)] or exists r in R[Q.a = r.a and Q.n = 0 and \
         not exists s in S[s.k = r.k]]}",
        function Ir.Semi { anti = true; _ } -> true | _ -> false );
    ]
  in
  let run f =
    match f () with
    | r ->
        Ok (List.sort compare (List.map Tuple.key (Relation.tuples r)))
    | exception Eval.Eval_error e -> Error (Eval.error_to_string e)
  in
  List.iter
    (fun (name, text, shape) ->
      let prog = Arc_syntax.Parser.program_of_string text in
      let _, _, optimized, _ = Exec.compile ~db:layout_db prog in
      if not (List.exists shape (plan_nodes optimized)) then
        Alcotest.failf "%s: the plan lacks the shape under test" name;
      List.iter
        (fun conv ->
          let reference = run (fun () -> Eval.run_rows ~conv ~db:layout_db prog) in
          let plan = run (fun () -> Exec.run_rows ~conv ~db:layout_db prog) in
          if plan <> reference then
            Alcotest.failf "%s under %s: plan differs from reference" name
              (Conventions.to_string conv))
        all_conventions)
    cases

(* Int and Float compare exactly: 2^53 + 1 is not the float 2^53, which
   [float_of_int] would round it to. The reference's comparison, the plan
   engine's hash keys and its compiled filters must all say so. *)
let int_float_exact () =
  let module Exec = Arc_engine.Exec in
  let module Tuple = Arc_relation.Tuple in
  let f = V.float in
  let db =
    Database.of_list
      [
        ( "R",
          Relation.of_rows [ "k"; "a" ]
            [
              [ i 9007199254740993; s "r1" ]; [ i 9007199254740992; s "r2" ];
              [ f 1.0; s "r3" ];
            ] );
        ( "S",
          Relation.of_rows [ "k"; "c" ]
            [ [ f 9007199254740992.; s "s1" ]; [ i 1; s "s2" ] ] );
      ]
  in
  let bag r = List.sort compare (List.map Tuple.key (Relation.tuples r)) in
  List.iter
    (fun (name, text, expected) ->
      let prog = Arc_syntax.Parser.program_of_string text in
      let reference = bag (Eval.run_rows ~db prog) in
      Alcotest.(check int) (name ^ ": reference rows") expected
        (List.length reference);
      Alcotest.(check (list string)) (name ^ ": plan = reference") reference
        (bag (Exec.run_rows ~db prog)))
    [
      ( "hash join",
        "{Q(a, c) | exists r in R, s in S[r.k = s.k and Q.a = r.a and Q.c = \
         s.c]}",
        2 );
      ( "filter",
        "{Q(a, c) | exists r in R, s in S[r.k >= s.k and r.k <= s.k and Q.a = \
         r.a and Q.c = s.c]}",
        2 );
      ( "constant filter",
        "{Q(a) | exists r in R[r.k = 9007199254740992.0 and Q.a = r.a]}",
        1 );
    ]

(* The fixpoint's accumulator is its own index of rows (keyed like every
   hash table of the engine: NULL = NULL, Int 1 = Float 1.0). Over random
   digraphs of at most 12 nodes, with cycles, self-loops, duplicate
   edges, Float endpoints equal to Int ones and NULLs, linear TC,
   non-linear TC and a mutual recursion agree with the reference's
   literal fixpoint under all 8 conventions, as bags of canonical keys or
   as the same error. *)
let graph_programs =
  List.map
    (fun (name, text) -> (name, Arc_syntax.Parser.program_of_string text))
    [
      ( "linear TC",
        "def A := {A(s, t) | exists e in E[A.s = e.s and A.t = e.t] or exists \
         e in E, b in A[A.s = e.s and e.t = b.s and b.t = A.t]} {Q(s, t) | \
         exists a in A[Q.s = a.s and Q.t = a.t]}" );
      ( "non-linear TC",
        "def A := {A(s, t) | exists e in E[A.s = e.s and A.t = e.t] or exists \
         a in A, b in A[A.s = a.s and a.t = b.s and b.t = A.t]} {Q(s, t) | \
         exists a in A[Q.s = a.s and Q.t = a.t]}" );
      ( "mutual recursion",
        "def O := {O(s, t) | exists e in E[O.s = e.s and O.t = e.t] or exists \
         e in E, x in V[O.s = e.s and e.t = x.s and O.t = x.t]} def V := \
         {V(s, t) | exists e in E, x in O[V.s = e.s and e.t = x.s and V.t = \
         x.t]} {Q(s, t, odd) | exists o in O[Q.s = o.s and Q.t = o.t and \
         Q.odd = 1] or exists v in V[Q.s = v.s and Q.t = v.t and Q.odd = 0]}"
      );
    ]

let gen_graph =
  QCheck.Gen.(
    let node =
      frequency
        [
          (8, map (fun k -> V.Int k) (int_bound 11));
          (2, map (fun k -> V.Float (float_of_int k)) (int_bound 11));
          (1, return V.Null);
        ]
    in
    let* edges = list_size (int_bound 24) (pair node node) in
    let* dups = list_size (int_bound 4) (int_bound 23) in
    (* duplicate edges, taken from the list itself *)
    let again = List.filter_map (List.nth_opt edges) dups in
    return (edges @ again))

let print_graph edges =
  String.concat "; "
    (List.map
       (fun (a, b) -> V.to_string a ^ "->" ^ V.to_string b)
       edges)

let fixpoint_index_parity =
  QCheck.Test.make ~name:"fixpoint index: plan = reference on random digraphs"
    ~count:60
    (QCheck.make ~print:print_graph gen_graph)
    (fun edges ->
      let module Exec = Arc_engine.Exec in
      let module Tuple = Arc_relation.Tuple in
      let db =
        Database.of_list
          [
            ( "E",
              Relation.of_rows [ "s"; "t" ]
                (List.map (fun (a, b) -> [ a; b ]) edges) );
          ]
      in
      let run f =
        match f () with
        | r -> Ok (List.sort compare (List.map Tuple.key (Relation.tuples r)))
        | exception Eval.Eval_error e -> Error (Eval.error_to_string e)
      in
      List.for_all
        (fun (name, prog) ->
          List.for_all
            (fun conv ->
              let reference = run (fun () -> Eval.run_rows ~conv ~db prog) in
              let plan = run (fun () -> Exec.run_rows ~conv ~db prog) in
              plan = reference
              || QCheck.Test.fail_reportf "%s under %s: plan differs" name
                   (Conventions.to_string conv))
            all_conventions)
        graph_programs)

(* Closures that cross the accumulator index's resize boundaries (it
   doubles when half full, from 8 slots): chains and rings of every
   length up to 40, whose closures are known exactly. *)
let fixpoint_index_resizes () =
  let module Exec = Arc_engine.Exec in
  let prog = List.assoc "linear TC" graph_programs in
  let closure edges =
    let db =
      Database.of_list
        [
          ( "E",
            Relation.of_rows [ "s"; "t" ]
              (List.map (fun (a, b) -> [ i a; i b ]) edges) );
        ]
    in
    List.sort compare
      (List.map
         (fun tp ->
           match Arc_relation.Tuple.values tp with
           | [ V.Int a; V.Int b ] -> (a, b)
           | _ -> Alcotest.fail "closure row is not two Ints")
         (Relation.tuples (Exec.run_rows ~conv:Conventions.sql ~db prog)))
  in
  for n = 1 to 40 do
    let chain = List.init n (fun k -> (k, k + 1)) in
    let ring = List.init n (fun k -> (k, (k + 1) mod n)) in
    let pairs p =
      List.concat_map (fun a -> List.filter_map (p a) (List.init (n + 1) Fun.id))
        (List.init (n + 1) Fun.id)
    in
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "chain %d" n)
      (pairs (fun a b -> if a < b then Some (a, b) else None))
      (closure chain);
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "ring %d" n)
      (pairs (fun a b -> if a < n && b < n then Some (a, b) else None))
      (closure (ring @ ring))
  done

(* A collection that only renames a relation (one disjunct projecting a
   filter-free scan attribute for attribute, in the head's order, over a
   relation with exactly those attributes) shares the relation's rows:
   the head is marked renamed and its disjunct never runs. Its result is
   the ordinary path's: duplicates of a stored relation stay under bag
   conventions and go under set conventions; a permuted head or one with
   other attribute names takes the ordinary path. *)
let identity_rename () =
  let module Exec = Arc_engine.Exec in
  let module Ir = Arc_plan.Ir in
  let module Tuple = Arc_relation.Tuple in
  let db =
    Database.of_list
      [
        ( "R",
          Relation.of_rows [ "s"; "t" ]
            [ [ i 1; i 2 ]; [ i 2; i 3 ]; [ i 1; i 2 ]; [ i 3; V.Null ];
              [ i 3; V.Null ]; [ V.Float 2.0; i 3 ] ] );
      ]
  in
  let eq16 = List.assoc "linear TC" graph_programs in
  let cases =
    [
      ("rename", "{Q(s, t) | exists r in R[Q.s = r.s and Q.t = r.t]}", true);
      ("permuted head", "{Q(t, s) | exists r in R[Q.t = r.t and Q.s = r.s]}",
       false);
      ("renamed attributes",
       "{Q(x, y) | exists r in R[Q.x = r.s and Q.y = r.t]}", false);
      ("projection", "{Q(s) | exists r in R[Q.s = r.s]}", false);
    ]
  in
  let bag r = List.sort compare (List.map Tuple.key (Relation.tuples r)) in
  let renamed_heads prog conv db =
    let ctx, _, optimized, _ = Exec.compile ~conv ~db prog in
    let stats = Ir.fresh_stats () in
    ignore (Exec.exec_program ~stats ctx optimized);
    Hashtbl.fold (fun _ a n -> if a.Ir.a_renamed then n + 1 else n) stats 0
  in
  List.iter
    (fun (cn, conv, rows) ->
      List.iter
        (fun (name, text, renames) ->
          let prog = Arc_syntax.Parser.program_of_string text in
          let plan = Exec.run_rows ~conv ~db prog in
          Alcotest.(check (list string))
            (Printf.sprintf "%s, %s: plan = reference" name cn)
            (bag (Eval.run_rows ~conv ~db prog))
            (bag plan);
          Alcotest.(check int)
            (Printf.sprintf "%s, %s: renamed heads" name cn)
            (if renames then 1 else 0)
            (renamed_heads prog conv db);
          if renames then
            Alcotest.(check int)
              (Printf.sprintf "%s, %s: rows" name cn)
              rows (Relation.cardinality plan))
        cases;
      let chain =
        Database.of_list
          [ ("E", Relation.of_rows [ "s"; "t" ] [ [ i 1; i 2 ]; [ i 2; i 3 ] ]) ]
      in
      Alcotest.(check int)
        (Printf.sprintf "eq16, %s: the main query is renamed" cn)
        1
        (renamed_heads eq16 conv chain))
    [ ("sql", Conventions.sql, 6); ("sql_set", Conventions.sql_set, 3) ]

(* A renamed head charges its scan's bindings and its rows as the
   ordinary path does, so tight budgets give the reference's rows or its
   typed error. *)
let identity_rename_budgets () =
  let module Exec = Arc_engine.Exec in
  let module Tuple = Arc_relation.Tuple in
  let module Budget = Arc_guard.Budget in
  let module Gov = Arc_guard.Gov in
  let db =
    Database.of_list
      [
        ( "R",
          Relation.of_rows [ "s"; "t" ]
            [ [ i 1; i 2 ]; [ i 2; i 3 ]; [ i 1; i 2 ]; [ i 4; i 5 ] ] );
      ]
  in
  let prog =
    Arc_syntax.Parser.program_of_string
      "{Q(s, t) | exists r in R[Q.s = r.s and Q.t = r.t]}"
  in
  let run f =
    match f () with
    | r -> Ok (List.map Tuple.key (Relation.tuples r))
    | exception Eval.Eval_error e -> Error (Eval.error_to_string e)
  in
  List.iter
    (fun conv ->
      List.iter
        (fun on_limit ->
          for k = 0 to 5 do
            List.iter
              (fun (what, budget) ->
                let guard () = Gov.make ~on_limit budget in
                Alcotest.(check (result (list string) string))
                  (Printf.sprintf "%s %d under %s" what k
                     (Conventions.to_string conv))
                  (run (fun () ->
                       Eval.run_rows ~conv ~guard:(guard ()) ~db prog))
                  (run (fun () ->
                       Exec.run_rows ~conv ~guard:(guard ()) ~db prog)))
              [
                ("max_rows", { Budget.unlimited with Budget.max_rows = Some k });
                ( "max_bindings",
                  { Budget.unlimited with Budget.max_bindings = Some k } );
              ]
          done)
        [ `Fail; `Truncate ])
    [ Conventions.sql; Conventions.sql_set ]

let () =
  Alcotest.run "arc_engine"
    [
      ( "basics",
        [
          Alcotest.test_case "eq1 TRC query" `Quick eq1;
          Alcotest.test_case "bag vs set projection" `Quick bag_projection;
          Alcotest.test_case "lateral nested comprehension" `Quick lateral_nested;
          Alcotest.test_case "negation" `Quick negation;
          Alcotest.test_case "disjunction" `Quick disjunction;
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "grouped aggregate (eq3)" `Quick grouped_aggregate;
          Alcotest.test_case "multiple aggregates, one scope" `Quick
            multi_aggregate_one_scope;
          Alcotest.test_case "sentences with aggregates (eqs 13-14)" `Quick
            sentence_aggregate;
          Alcotest.test_case "FIO = FOI under set semantics" `Quick fio_foi_agree;
          Alcotest.test_case "HAVING as outer selection (eq8)" `Quick having_eq8;
          Alcotest.test_case "matrix multiplication (eq26)" `Quick matrix_mult;
        ] );
      ( "recursion",
        [
          Alcotest.test_case "ancestor chain" `Quick recursion_ancestor;
          Alcotest.test_case "ancestor cycle" `Quick recursion_cycle;
          Alcotest.test_case "naive = semi-naive" `Quick
            naive_agrees_with_delta_rules;
          Alcotest.test_case "nonlinear recursion" `Quick recursion_nonlinear;
          Alcotest.test_case "TC ladder: flat words per output row" `Quick
            tc_ladder_flat;
          QCheck_alcotest.to_alcotest fixpoint_index_parity;
          Alcotest.test_case "fixpoint index across resizes" `Quick
            fixpoint_index_resizes;
          Alcotest.test_case "identity rename" `Quick identity_rename;
          Alcotest.test_case "identity rename under budgets" `Quick
            identity_rename_budgets;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "all aggregate kinds" `Quick all_aggregate_kinds;
          Alcotest.test_case "nested outer joins" `Quick nested_outer_joins;
          Alcotest.test_case "error paths" `Quick engine_errors;
        ] );
      ( "outer joins",
        [
          Alcotest.test_case "left join" `Quick left_join;
          Alcotest.test_case "full join" `Quick full_join;
          Alcotest.test_case "literal leaf (eq18)" `Quick outer_join_literal;
        ] );
      ( "externals & abstracts",
        [
          Alcotest.test_case "minus/bigger (eqs 19-21)" `Quick external_relations;
          Alcotest.test_case "unique-set via abstract Subset" `Quick
            unique_set_abstract;
        ] );
      ( "conventions",
        [
          Alcotest.test_case "agg over empty: 0 vs NULL (eq15)" `Quick
            convention_agg_empty;
          Alcotest.test_case "set/bag (un)nesting" `Quick set_bag_unnesting;
          Alcotest.test_case "NOT IN with NULLs (eq17)" `Quick not_in_nulls;
          Alcotest.test_case "dedup via grouping" `Quick dedup_via_grouping;
          Alcotest.test_case "grouping key collision regression" `Quick
            grouping_key_collisions;
          Alcotest.test_case "typed key parity" `Quick key_semantics_parity;
          Alcotest.test_case "exact Int/Float comparison" `Quick
            int_float_exact;
          Alcotest.test_case "positional layout parity" `Quick layout_parity;
        ] );
      ( "count bug",
        [
          Alcotest.test_case "eqs 27-29" `Quick count_bug;
          Alcotest.test_case "fig 13 bag counterexample" `Quick
            fig13_counterexample;
        ] );
    ]
