(* SQL substrate tests: parser, printer, evaluator, and both directions of
   the SQL↔ARC translator (cross-validated on the paper's figure queries). *)

module Sql = Arc_sql
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

(* ------------------------------------------------------------------ *)
(* Parser / printer                                                    *)
(* ------------------------------------------------------------------ *)

let roundtrip q =
  let st = Sql.Parse.statement_of_string q in
  let printed = Sql.Print.statement st in
  let st2 =
    try Sql.Parse.statement_of_string printed
    with Sql.Parse.Parse_error m ->
      Alcotest.failf "reparse of %S failed: %s" printed m
  in
  if not (Sql.Ast.equal_statement st st2) then
    Alcotest.failf "round-trip mismatch: %s" printed

let parse_roundtrips () =
  List.iter roundtrip
    [
      "select R.A from R";
      "select distinct R.A, S.B from R, S where R.A = S.B";
      "select R.A, sum(R.B) as sm from R group by R.A";
      "select R.dept, avg(S.sal) av from R, S where R.empl = S.empl group by \
       R.dept having sum(S.sal) > 100";
      "select R.A from R where not exists (select 1 from S where S.B = R.A)";
      "select R.A from R where R.A not in (select S.A from S)";
      "select R.A from R where R.A in (select S.A from S)";
      "select R.A, X.sm from R join lateral (select sum(S.B) sm from S where \
       S.A < R.A) as X on true";
      "select R.A, S.B from R left join S on R.A = S.B";
      "select R.m, S.n from R full join S on R.y = S.y";
      "select R.A from R cross join S";
      "select R.A from R union select S.B from S";
      "select R.A from R union all select S.B from S";
      "select R.A from R except select S.A from S";
      "select R.A from R intersect select S.A from S";
      "with T as (select R.A from R) select T.A from T";
      "with recursive A(s, t) as (select P.s, P.t from P union select P.s, \
       A.t from P, A where P.t = A.s) select A.s, A.t from A";
      "select count(*) c, count(distinct R.A) d from R";
      "select R.A + 1 as x, R.B * 2 y from R where R.A - 1 > 0";
      "select R.A from R where R.name like 'a%' and R.B is not null";
      "select (select sum(S.B) from S where S.A = R.A) as sm from R";
      "select R.A from R where R.B = (select max(S.B) from S)";
    ]

let parse_errors () =
  let bad q =
    match Sql.Parse.statement_of_string q with
    | exception Sql.Parse.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error: %s" q
  in
  bad "select";
  bad "select R.A from";
  bad "select R.A from R where";
  bad "select R.A from R group";
  bad "select R.A from R junk extra"

(* ------------------------------------------------------------------ *)
(* Evaluator                                                           *)
(* ------------------------------------------------------------------ *)

let db_counts =
  Database.of_list
    [
      ("R", Relation.of_rows [ "id"; "q" ] [ [ i 9; i 0 ] ]);
      ("S", Relation.of_rows [ "id"; "d" ] []);
    ]

let count_bug_sql () =
  let run q = Sql.Eval_sql.run_string ~db:db_counts q in
  check_rel ~msg:"fig 21a"
    (Relation.of_rows [ "id" ] [ [ i 9 ] ])
    (run
       "select R.id from R where R.q = (select count(S.d) from S where R.id = \
        S.id)");
  Alcotest.(check int) "fig 21b (the bug)" 0
    (Relation.cardinality
       (run
          "select R.id from R, (select S.id, count(S.d) ct from S group by \
           S.id) X where R.id = X.id and R.q = X.ct"));
  check_rel ~msg:"fig 21c"
    (Relation.of_rows [ "id" ] [ [ i 9 ] ])
    (run
       "select R.id from R, (select R2.id, count(S.d) ct from R R2 left join \
        S on R2.id = S.id group by R2.id) X where R.id = X.id and R.q = X.ct")

let not_in_null_sql () =
  let db =
    Database.of_list
      [
        ("R", Relation.of_rows [ "A" ] [ [ i 1 ]; [ i 2 ] ]);
        ("S", Relation.of_rows [ "A" ] [ [ i 1 ]; [ V.Null ] ]);
      ]
  in
  (* Fig 11a: empty because S contains NULL *)
  Alcotest.(check int) "NOT IN with NULL" 0
    (Relation.cardinality
       (Sql.Eval_sql.run_string ~db
          "select R.A from R where R.A not in (select S.A from S)"));
  (* Fig 11b: the NOT EXISTS + explicit null checks rewrite agrees *)
  Alcotest.(check int) "rewrite agrees" 0
    (Relation.cardinality
       (Sql.Eval_sql.run_string ~db
          "select R.A from R where not exists (select 1 from S where S.A = \
           R.A or S.A is null or R.A is null)"));
  (* without NULL in S, both return {2} *)
  let db2 =
    Database.of_list
      [
        ("R", Relation.of_rows [ "A" ] [ [ i 1 ]; [ i 2 ] ]);
        ("S", Relation.of_rows [ "A" ] [ [ i 1 ] ]);
      ]
  in
  check_rel ~msg:"no null case"
    (Relation.of_rows [ "A" ] [ [ i 2 ] ])
    (Sql.Eval_sql.run_string ~db:db2
       "select R.A from R where R.A not in (select S.A from S)")

let lateral_vs_scalar () =
  (* Fig 5a ≡ Fig 5b *)
  let db =
    Database.of_list
      [
        ( "R",
          Relation.of_rows [ "A"; "B" ]
            [ [ i 1; i 10 ]; [ i 1; i 20 ]; [ i 2; i 5 ] ] );
      ]
  in
  let scalar =
    Sql.Eval_sql.run_string ~db
      "select distinct R.A, (select sum(R2.B) sm from R R2 where R2.A = R.A) \
       sm from R"
  in
  let lateral =
    Sql.Eval_sql.run_string ~db
      "select distinct R.A, X.sm from R join lateral (select sum(R2.B) sm \
       from R R2 where R2.A = R.A) X on true"
  in
  Alcotest.(check bool) "scalar = lateral" true (Relation.equal_bag scalar lateral);
  check_rel ~msg:"values"
    (Relation.of_rows [ "A"; "sm" ] [ [ i 1; i 30 ]; [ i 2; i 5 ] ])
    scalar

let fig13_bag_counterexample_sql () =
  let db =
    Database.of_list
      [
        ("R", Relation.of_rows [ "A" ] [ [ i 1 ]; [ i 1 ] ]);
        ("S", Relation.of_rows [ "A"; "B" ] [ [ i 0; i 10 ] ]);
      ]
  in
  let lateral =
    Sql.Eval_sql.run_string ~db
      "select R.A, X.sm from R join lateral (select sum(S.B) sm from S where \
       S.A < R.A) X on true"
  in
  let leftjoin =
    Sql.Eval_sql.run_string ~db
      "select R.A, sum(S.B) sm from R left join S on S.A < R.A group by R.A"
  in
  Alcotest.(check int) "lateral keeps duplicates" 2 (Relation.cardinality lateral);
  Alcotest.(check int) "left join collapses" 1 (Relation.cardinality leftjoin)

let outer_join_on_vs_where () =
  (* ON conditions on the preserved side keep rows; WHERE filters them *)
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
  let on_version =
    Sql.Eval_sql.run_string ~db
      "select R.m, S.n from R left join S on R.y = S.y and R.h = 11"
  in
  check_rel ~msg:"ON keeps r2 padded"
    (Relation.of_rows [ "m"; "n" ] [ [ s "r1"; s "s1" ]; [ s "r2"; V.Null ] ])
    on_version;
  let where_version =
    Sql.Eval_sql.run_string ~db
      "select R.m, S.n from R left join S on R.y = S.y where R.h = 11"
  in
  check_rel ~msg:"WHERE drops r2"
    (Relation.of_rows [ "m"; "n" ] [ [ s "r1"; s "s1" ] ])
    where_version

let group_having_sql () =
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
  check_rel ~msg:"fig 6a"
    (Relation.of_rows [ "dept"; "av" ] [ [ s "d1"; V.Float 60. ] ])
    (Sql.Eval_sql.run_string ~db
       "select R.dept, avg(S.sal) av from R, S where R.empl = S.empl group \
        by R.dept having sum(S.sal) > 100")

let empty_aggregate_sql () =
  let db = Database.of_list [ ("S", Relation.of_rows [ "B" ] []) ] in
  let r = Sql.Eval_sql.run_string ~db "select sum(S.B) sm from S" in
  check_rel ~msg:"one NULL row" (Relation.of_rows [ "sm" ] [ [ V.Null ] ]) r;
  let r2 = Sql.Eval_sql.run_string ~db "select count(S.B) c from S" in
  check_rel ~msg:"count 0" (Relation.of_rows [ "c" ] [ [ i 0 ] ]) r2

let set_ops_sql () =
  let db =
    Database.of_list
      [
        ("R", Relation.of_rows [ "A" ] [ [ i 1 ]; [ i 1 ]; [ i 2 ] ]);
        ("S", Relation.of_rows [ "A" ] [ [ i 2 ]; [ i 3 ] ]);
      ]
  in
  let run q = Sql.Eval_sql.run_string ~db q in
  Alcotest.(check int) "union distinct" 3
    (Relation.cardinality (run "select R.A from R union select S.A from S"));
  Alcotest.(check int) "union all" 5
    (Relation.cardinality (run "select R.A from R union all select S.A from S"));
  check_rel ~msg:"except"
    (Relation.of_rows [ "A" ] [ [ i 1 ] ])
    (run "select R.A from R except select S.A from S");
  check_rel ~msg:"intersect"
    (Relation.of_rows [ "A" ] [ [ i 2 ] ])
    (run "select R.A from R intersect select S.A from S")

let order_by_limit () =
  let db =
    Database.of_list
      [
        ( "R",
          Relation.of_rows [ "A"; "B" ]
            [ [ i 1; i 10 ]; [ i 2; i 30 ]; [ i 3; i 20 ]; [ i 4; i 30 ] ] );
      ]
  in
  let run q = Sql.Eval_sql.run_string ~db q in
  let values r =
    List.map
      (fun tp -> Arc_relation.Tuple.values tp)
      (Relation.tuples r)
  in
  (* ascending on a column *)
  Alcotest.(check bool) "order by asc" true
    (values (run "select R.A from R order by R.B")
    = [ [ i 1 ]; [ i 3 ]; [ i 2 ]; [ i 4 ] ]);
  (* descending, multi-key: B desc then A asc breaks the tie *)
  Alcotest.(check bool) "order by desc with tiebreak" true
    (values (run "select R.A from R order by R.B desc, R.A")
    = [ [ i 2 ]; [ i 4 ]; [ i 3 ]; [ i 1 ] ]);
  (* limit *)
  Alcotest.(check bool) "limit" true
    (values (run "select R.A from R order by R.B desc, R.A limit 2")
    = [ [ i 2 ]; [ i 4 ] ]);
  (* order by output alias *)
  Alcotest.(check bool) "order by alias" true
    (values (run "select R.B * 2 as d from R order by d limit 1")
    = [ [ i 20 ] ]);
  (* order by aggregate with group by *)
  Alcotest.(check bool) "order by aggregate" true
    (values (run "select R.B, count(*) c from R group by R.B order by c desc, R.B limit 1")
    = [ [ i 30; i 2 ] ]);
  (* parse/print round-trip *)
  roundtrip "select R.A from R order by R.B desc, R.A limit 3";
  (* SQL→ARC reports ordered output as unsupported (paper Section 5) *)
  (match
     Sql.To_arc.statement ~schemas:[ ("R", [ "A"; "B" ]) ]
       (Sql.Parse.statement_of_string "select R.A from R order by R.B")
   with
  | exception Sql.To_arc.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported for ORDER BY")

let recursive_cte_sql () =
  let db =
    Database.of_list
      [
        ( "P",
          Relation.of_rows [ "s"; "t" ]
            [ [ i 1; i 2 ]; [ i 2; i 3 ]; [ i 3; i 4 ] ] );
      ]
  in
  let r =
    Sql.Eval_sql.run_string ~db
      "with recursive A(s, t) as (select P.s, P.t from P union select P.s, \
       A.t from P, A where P.t = A.s) select A.s, A.t from A"
  in
  Alcotest.(check int) "transitive closure size" 6 (Relation.cardinality r)

(* ------------------------------------------------------------------ *)
(* SQL→ARC: cross-validation against the direct SQL evaluator          *)
(* ------------------------------------------------------------------ *)

let figures_db =
  Database.of_list
    [
      ( "R",
        Relation.of_rows [ "A"; "B" ]
          [ [ i 1; i 10 ]; [ i 1; i 20 ]; [ i 2; i 5 ]; [ i 3; V.Null ] ] );
      ( "S",
        Relation.of_rows [ "B"; "C" ]
          [ [ i 10; i 0 ]; [ i 20; i 5 ]; [ i 5; i 0 ]; [ V.Null; i 7 ] ] );
    ]

let schemas = [ ("R", [ "A"; "B" ]); ("S", [ "B"; "C" ]) ]

let cross_check ?(db = figures_db) q =
  let direct = Sql.Eval_sql.run_string ~db q in
  let prog = Sql.To_arc.statement ~schemas (Sql.Parse.statement_of_string q) in
  (match Arc_core.Analysis.validate prog with
  | Ok () -> ()
  | Error es ->
      Alcotest.failf "translated ARC invalid for %S: %s" q
        (String.concat "; "
           (List.map Arc_core.Analysis.error_to_string es)));
  let via_arc = Eval.run_rows ~conv:Conventions.sql ~db prog in
  if not (Relation.equal_bag (Relation.sort direct) (Relation.sort via_arc))
  then
    Alcotest.failf "SQL vs ARC mismatch for %S:@.SQL:@.%s@.ARC:@.%s" q
      (Relation.to_table (Relation.sort direct))
      (Relation.to_table (Relation.sort via_arc))

let to_arc_basic () =
  List.iter cross_check
    [
      "select R.A from R";
      "select R.A, R.B from R where R.A > 1";
      "select R.A, S.C from R, S where R.B = S.B";
      "select distinct R.A from R";
      "select R.A + 1 x, R.B * 2 y from R where R.A - 1 >= 0";
    ]

let to_arc_subqueries () =
  List.iter cross_check
    [
      "select R.A from R where exists (select 1 from S where S.B = R.B)";
      "select R.A from R where not exists (select 1 from S where S.B = R.B)";
      "select R.A from R where R.B in (select S.B from S where S.C = 0)";
      "select R.A from R where R.B not in (select S.B from S)";
      "select R.A from R where R.A in (select S.C from S)";
    ]

let to_arc_aggregates () =
  List.iter cross_check
    [
      "select R.A, sum(R.B) sm from R group by R.A";
      "select R.A, sum(R.B) sm, count(R.B) ct, max(R.B) mx from R group by R.A";
      "select count(*) c from R";
      "select R.A, count(*) c from R group by R.A having count(*) > 1";
      "select sum(R.B) sm from R where R.A > 1";
    ]

let to_arc_lateral_scalar () =
  List.iter cross_check
    [
      "select R.A, (select sum(S.C) from S where S.B = R.B) sm from R";
      "select R.A, X.sm from R join lateral (select sum(S.C) sm from S where \
       S.B = R.B) X on true";
    ]

let to_arc_outer_joins () =
  List.iter cross_check
    [
      "select R.A, S.C from R left join S on R.B = S.B";
      "select R.A, S.C from R full join S on R.B = S.B";
      "select R.A, S.C from R left join S on R.B = S.B and R.A = 1";
    ]

let to_arc_set_ops () =
  List.iter cross_check
    [
      "select R.A x from R union select S.C x from S";
      "select R.A x from R union all select S.C x from S";
      "select R.A x from R except select S.C x from S";
      "select R.A x from R intersect select S.C x from S";
    ]

let to_arc_ctes () =
  cross_check
    "with T(v) as (select R.A from R where R.A > 1) select T.v from T";
  let db =
    Database.of_list
      [
        ( "P",
          Relation.of_rows [ "s"; "t" ]
            [ [ i 1; i 2 ]; [ i 2; i 3 ]; [ i 3; i 4 ] ] );
      ]
  in
  let q =
    "with recursive A(s, t) as (select P.s, P.t from P union select P.s, A.t \
     from P, A where P.t = A.s) select A.s, A.t from A"
  in
  let direct = Sql.Eval_sql.run_string ~db q in
  let prog =
    Sql.To_arc.statement ~schemas:[ ("P", [ "s"; "t" ]) ]
      (Sql.Parse.statement_of_string q)
  in
  let via_arc = Eval.run_rows ~conv:Conventions.sql ~db prog in
  Alcotest.(check bool) "recursive CTE agrees" true
    (Relation.equal_set direct via_arc)

let to_arc_pattern () =
  (* the translation preserves the FIO pattern of GROUP BY (Fig 4) *)
  let prog =
    Sql.To_arc.statement ~schemas
      (Sql.Parse.statement_of_string "select R.A, sum(R.B) sm from R group by R.A")
  in
  let pat = Arc_core.Pattern.of_query prog.Arc_core.Ast.main in
  Alcotest.(check bool) "FIO" true
    (pat.Arc_core.Pattern.agg_styles = [ Arc_core.Pattern.FIO ]);
  (* the scalar-subquery form becomes FOI (Fig 5) *)
  let prog2 =
    Sql.To_arc.statement ~schemas
      (Sql.Parse.statement_of_string
         "select R.A, (select sum(R2.B) from R R2 where R2.A = R.A) sm from R")
  in
  let pat2 = Arc_core.Pattern.of_query prog2.Arc_core.Ast.main in
  Alcotest.(check bool) "FOI" true
    (pat2.Arc_core.Pattern.agg_styles = [ Arc_core.Pattern.FOI ])

(* ------------------------------------------------------------------ *)
(* ARC→SQL                                                             *)
(* ------------------------------------------------------------------ *)

let of_arc_roundtrip () =
  (* arc → sql → evaluate, compare against the ARC engine *)
  let open Arc_core.Build in
  let checks =
    [
      ( coll "Q" [ "A" ]
          (exists
             [ bind "r" "R"; bind "s" "S" ]
             (conj
                [
                  eq (attr "Q" "A") (attr "r" "A");
                  eq (attr "r" "B") (attr "s" "B");
                  eq (attr "s" "C") (cint 0);
                ])),
        "eq1" );
      ( coll "Q" [ "A"; "sm" ]
          (exists
             ~grouping:[ ("r", "A") ]
             [ bind "r" "R" ]
             (conj
                [
                  eq (attr "Q" "A") (attr "r" "A");
                  eq (attr "Q" "sm") (sum (attr "r" "B"));
                ])),
        "eq3" );
      ( coll "Q" [ "A" ]
          (exists [ bind "r" "R" ]
             (conj
                [
                  eq (attr "Q" "A") (attr "r" "A");
                  not_
                    (exists [ bind "s" "S" ] (eq (attr "r" "B") (attr "s" "B")));
                ])),
        "negation" );
      ( coll "Q" [ "X" ]
          (disj
             [
               exists [ bind "r" "R" ] (eq (attr "Q" "X") (attr "r" "A"));
               exists [ bind "s" "S" ] (eq (attr "Q" "X") (attr "s" "C"));
             ]),
        "union" );
      ( coll "Q" [ "A"; "C" ]
          (exists
             ~join:(J_left (J_var "r", J_var "s"))
             [ bind "r" "R"; bind "s" "S" ]
             (conj
                [
                  eq (attr "Q" "A") (attr "r" "A");
                  eq (attr "Q" "C") (attr "s" "C");
                  eq (attr "r" "B") (attr "s" "B");
                ])),
        "left join" );
    ]
  in
  List.iter
    (fun (q, name) ->
      let prog = Arc_core.Ast.program q in
      let via_engine =
        Eval.run_rows ~conv:Conventions.sql_set ~db:figures_db prog
      in
      let sql = Sql.Of_arc.statement ~conv:Conventions.sql_set ~schemas prog in
      let via_sql = Sql.Eval_sql.run ~db:figures_db sql in
      if
        not
          (Relation.equal_set via_engine via_sql)
      then
        Alcotest.failf "%s: engine vs SQL mismatch:@.engine:@.%s@.sql (%s):@.%s"
          name
          (Relation.to_table (Relation.sort via_engine))
          (Sql.Print.statement sql)
          (Relation.to_table (Relation.sort via_sql)))
    checks

let of_arc_sentence () =
  let open Arc_core.Build in
  let prog =
    Arc_core.Ast.program
      (sentence
         (exists [ bind "r" "R" ] (gt (attr "r" "A") (cint 0))))
  in
  let sql = Sql.Of_arc.statement prog in
  let r = Sql.Eval_sql.run ~db:figures_db sql in
  Alcotest.(check int) "sentence holds -> one row" 1 (Relation.cardinality r)

let of_arc_recursive () =
  let open Arc_core.Build in
  let db =
    Database.of_list
      [ ("P", Relation.of_rows [ "s"; "t" ] [ [ i 1; i 2 ]; [ i 2; i 3 ] ]) ]
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
  let prog =
    Arc_core.Ast.program ~defs:[ anc ]
      (coll "Q" [ "s"; "t" ]
         (exists [ bind "a" "A" ]
            (conj
               [
                 eq (attr "Q" "s") (attr "a" "s");
                 eq (attr "Q" "t") (attr "a" "t");
               ])))
  in
  let via_engine = Eval.run_rows ~db prog in
  let sql = Sql.Of_arc.statement prog in
  Alcotest.(check bool) "marked recursive" true sql.Sql.Ast.with_recursive;
  let via_sql = Sql.Eval_sql.run ~db sql in
  Alcotest.(check bool) "recursion agrees" true
    (Relation.equal_set via_engine via_sql)

(* WITH RECURSIVE is decided by the definitions' dependency cycles: a
   self-reference, and a mutual recursion in which no definition names
   itself, both need it; definitions without a cycle do not. *)
let of_arc_with_recursive () =
  let marked text =
    (Sql.Of_arc.statement (Arc_syntax.Parser.program_of_string text))
      .Sql.Ast.with_recursive
  in
  Alcotest.(check bool) "mutual recursion" true
    (marked
       "def A := {A(x) | exists p in P[A.x = p.s] or exists b in B[A.x = \
        b.x]} def B := {B(x) | exists a in A, p in P[a.x = p.s and B.x = \
        p.t]} {Q(x) | exists a in A[Q.x = a.x]}");
  Alcotest.(check bool) "self recursion" true
    (marked
       "def A := {A(s,t) | exists p in P[A.s = p.s and A.t = p.t] or exists \
        p in P, a2 in A[A.s = p.s and p.t = a2.s and a2.t = A.t]} {Q(s,t) | \
        exists a in A[Q.s = a.s and Q.t = a.t]}");
  Alcotest.(check bool) "no cycle" false
    (marked
       "def A := {A(x) | exists p in P[A.x = p.s]} def B := {B(x) | exists \
        a in A[B.x = a.x]} {Q(x) | exists b in B[Q.x = b.x]}")

(* Satellite: Of_arc output must survive print → re-parse → to_arc as a
   semantically equivalent core — including identifier quoting, string
   escaping, operator precedence, and the NOT EXISTS/NOT IN family. *)
let of_arc_reparse_roundtrip () =
  let open Arc_core.Build in
  let db_strs =
    Database.of_list
      [
        ( "T",
          Relation.of_rows [ "name" ]
            [ [ s "it's" ]; [ s "plain" ]; [ s "a,b" ]; [ s "null" ] ] );
      ]
  in
  let value_rows r =
    let attrs = Arc_relation.Schema.attrs (Relation.schema r) in
    List.sort compare
      (List.map
         (fun tp -> List.map (Arc_relation.Tuple.get tp) attrs)
         (Relation.tuples r))
  in
  let all_schemas = schemas @ [ ("T", [ "name" ]) ] in
  let check (db, q, name) =
    let prog = Arc_core.Ast.program q in
    let direct = Eval.run_rows ~conv:Conventions.sql_set ~db prog in
    let sql_text =
      Sql.Print.statement (Sql.Of_arc.statement ~conv:Conventions.sql_set prog)
    in
    let reparsed =
      try Sql.Parse.statement_of_string sql_text
      with Sql.Parse.Parse_error m ->
        Alcotest.failf "%s: reparse of %S failed: %s" name sql_text m
    in
    let back = Sql.To_arc.statement ~schemas:all_schemas reparsed in
    let via = Eval.run_rows ~conv:Conventions.sql_set ~db back in
    if value_rows direct <> value_rows via then
      Alcotest.failf "%s: %S changed meaning on re-parse" name sql_text
  in
  List.iter check
    [
      ( db_strs,
        coll "Q" [ "n" ]
          (exists [ bind "t" "T" ]
             (conj
                [
                  eq (attr "Q" "n") (attr "t" "name");
                  eq (attr "t" "name") (cstr "it's");
                ])),
        "embedded quote in literal" );
      ( db_strs,
        coll "Q" [ "n" ]
          (exists [ bind "t" "T" ]
             (conj
                [
                  eq (attr "Q" "n") (attr "t" "name");
                  like (attr "t" "name") "it'%";
                ])),
        "embedded quote in LIKE pattern" );
      ( figures_db,
        coll "Q" [ "x"; "y" ]
          (exists [ bind "r" "R" ]
             (conj
                [
                  eq (attr "Q" "x")
                    (add (attr "r" "A") (mul (attr "r" "B") (cint 2)));
                  eq (attr "Q" "y") (mod_ (attr "r" "B") (cint 3));
                ])),
        "arithmetic precedence and mod" );
      ( figures_db,
        coll "Q" [ "A" ]
          (exists [ bind "r" "R" ]
             (conj
                [
                  eq (attr "Q" "A") (attr "r" "A");
                  not_
                    (exists [ bind "s2" "S" ]
                       (eq (attr "r" "B") (attr "s2" "B")));
                ])),
        "not exists" );
      ( figures_db,
        coll "Q" [ "f" ]
          (exists [ bind "r" "R" ]
             (conj
                [
                  eq (attr "Q" "f") (attr "r" "A");
                  gt (attr "r" "A") (const (V.Float 1e-7));
                ])),
        "exponent float literal" );
    ]

let full_circle () =
  (* SQL → ARC → SQL: the reprinted SQL must still evaluate to the same
     result (under set semantics, which the reverse direction targets) *)
  List.iter
    (fun q ->
      let direct = Relation.dedup (Sql.Eval_sql.run_string ~db:figures_db q) in
      let prog =
        Sql.To_arc.statement ~schemas (Sql.Parse.statement_of_string q)
      in
      match Sql.Of_arc.statement ~conv:Conventions.sql_set prog with
      | exception Sql.Of_arc.Unsupported _ -> ()
      | back ->
          let again = Sql.Eval_sql.run ~db:figures_db back in
          if not (Relation.equal_set direct again) then
            Alcotest.failf "full circle changed %S (became %S)" q
              (Sql.Print.statement back))
    [
      "select R.A from R";
      "select R.A, S.C from R, S where R.B = S.B";
      "select R.A from R where not exists (select 1 from S where S.B = R.B)";
      "select R.A, sum(R.B) sm from R group by R.A";
      "select R.A x from R union select S.C x from S";
      "select R.A, S.C from R left join S on R.B = S.B";
      "select R.A from R where R.B in (select S.B from S where S.C = 0)";
    ]

(* SQL → ARC → SQL → ARC keeps each of the paper's SQL figures' relational
   pattern under bag conventions. (Under [sql_set], [Of_arc] wraps sources
   in SELECT DISTINCT derived tables, which read back as nested
   collections; that case is not asserted.) *)
let figures_keep_pattern () =
  let module D = Arc_catalog.Data in
  let schemas_of db =
    List.map
      (fun n ->
        (n, Arc_relation.Schema.attrs (Relation.schema (Database.find db n))))
      (Database.names db)
  in
  let figures =
    [
      ("3a", D.sql_fig3a, [ ("X", [ "A" ]); ("Y", [ "A" ]) ]);
      ("4a", D.sql_fig4a, schemas_of D.db_grouping);
      ("5a", D.sql_fig5a, schemas_of D.db_grouping);
      ("5b", D.sql_fig5b, schemas_of D.db_grouping);
      ("6a", D.sql_fig6a, schemas_of D.db_payroll);
      ("9a", D.sql_fig9a, schemas_of D.db_boolean);
      ("11a", D.sql_fig11a, schemas_of D.db_nulls);
      ("11b", D.sql_fig11b, schemas_of D.db_nulls);
      ("12a", D.sql_fig12a, schemas_of D.db_outer);
      ("13a", D.sql_fig13a, schemas_of D.db_fig13);
      ("13b", D.sql_fig13b, schemas_of D.db_fig13);
      ("13c", D.sql_fig13c, schemas_of D.db_fig13);
      ("17", D.sql_fig17, schemas_of D.db_beers);
      ("21a", D.sql_fig21a, schemas_of D.db_countbug);
      ("21b", D.sql_fig21b, schemas_of D.db_countbug);
      ("21c", D.sql_fig21c, schemas_of D.db_countbug);
    ]
  in
  let changed =
    List.filter
      (fun (_, text, schemas) ->
        let arc =
          Sql.To_arc.statement ~schemas (Sql.Parse.statement_of_string text)
        in
        let back =
          Sql.To_arc.statement ~schemas
            (Sql.Of_arc.statement ~conv:Conventions.sql arc)
        in
        not
          (Arc_core.Pattern.equal
             (Arc_core.Pattern.of_query arc.Arc_core.Ast.main)
             (Arc_core.Pattern.of_query back.Arc_core.Ast.main)))
      figures
  in
  Alcotest.(check (list string))
    "figures whose pattern changes" []
    (List.map (fun (name, _, _) -> name) changed)

(* property: random small databases, the whole translated query battery *)
let prop_translation_agrees =
  let gen_db =
    QCheck.Gen.(
      let row = list_size (return 2) (map i (int_bound 4)) in
      let* rrows = list_size (int_bound 6) row in
      let* srows = list_size (int_bound 6) row in
      return
        (Database.of_list
           [
             ("R", Relation.of_rows [ "A"; "B" ] rrows);
             ("S", Relation.of_rows [ "B"; "C" ] srows);
           ]))
  in
  let queries =
    [
      "select R.A, S.C from R, S where R.B = S.B";
      "select R.A from R where not exists (select 1 from S where S.B = R.B)";
      "select R.A, sum(R.B) sm from R group by R.A";
      "select R.A from R where R.B in (select S.B from S)";
      "select R.A, S.C from R left join S on R.B = S.B";
      "select R.A x from R union select S.C x from S";
      "select distinct R.A from R where R.A > 1";
    ]
  in
  QCheck.Test.make ~name:"SQL ≡ ARC on random databases" ~count:60
    (QCheck.make gen_db) (fun db ->
      List.for_all
        (fun q ->
          let direct = Sql.Eval_sql.run_string ~db q in
          let prog =
            Sql.To_arc.statement ~schemas (Sql.Parse.statement_of_string q)
          in
          let via_arc = Eval.run_rows ~conv:Conventions.sql ~db prog in
          Relation.equal_bag (Relation.sort direct) (Relation.sort via_arc))
        queries)

let () =
  Alcotest.run "arc_sql"
    [
      ( "parse/print",
        [
          Alcotest.test_case "round-trips" `Quick parse_roundtrips;
          Alcotest.test_case "errors" `Quick parse_errors;
        ] );
      ( "evaluator",
        [
          Alcotest.test_case "count bug (fig 21)" `Quick count_bug_sql;
          Alcotest.test_case "NOT IN with NULL (fig 11)" `Quick not_in_null_sql;
          Alcotest.test_case "scalar = lateral (fig 5)" `Quick lateral_vs_scalar;
          Alcotest.test_case "fig 13 bag counterexample" `Quick
            fig13_bag_counterexample_sql;
          Alcotest.test_case "ON vs WHERE on outer join" `Quick
            outer_join_on_vs_where;
          Alcotest.test_case "group/having (fig 6)" `Quick group_having_sql;
          Alcotest.test_case "aggregates over empty" `Quick empty_aggregate_sql;
          Alcotest.test_case "set operations" `Quick set_ops_sql;
          Alcotest.test_case "order by / limit" `Quick order_by_limit;
          Alcotest.test_case "recursive CTE" `Quick recursive_cte_sql;
        ] );
      ( "sql→arc",
        [
          Alcotest.test_case "basic" `Quick to_arc_basic;
          Alcotest.test_case "subqueries" `Quick to_arc_subqueries;
          Alcotest.test_case "aggregates" `Quick to_arc_aggregates;
          Alcotest.test_case "lateral/scalar" `Quick to_arc_lateral_scalar;
          Alcotest.test_case "outer joins" `Quick to_arc_outer_joins;
          Alcotest.test_case "set operations" `Quick to_arc_set_ops;
          Alcotest.test_case "CTEs" `Quick to_arc_ctes;
          Alcotest.test_case "pattern preservation" `Quick to_arc_pattern;
        ] );
      ( "arc→sql",
        [
          Alcotest.test_case "round-trips" `Quick of_arc_roundtrip;
          Alcotest.test_case "full circle SQL→ARC→SQL" `Quick full_circle;
          Alcotest.test_case "of_arc print/re-parse fidelity" `Quick
            of_arc_reparse_roundtrip;
          Alcotest.test_case "sentence" `Quick of_arc_sentence;
          Alcotest.test_case "recursion" `Quick of_arc_recursive;
          Alcotest.test_case "WITH RECURSIVE on any cycle" `Quick
            of_arc_with_recursive;
          Alcotest.test_case "figures keep their pattern SQL→ARC→SQL→ARC"
            `Quick figures_keep_pattern;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_translation_agrees ] );
    ]
