(* Rewrite tests: each rewrite's claimed (in)equivalences, checked both on
   worked instances and on random databases. *)

open Arc_core.Ast
open Arc_core.Build
module Rewrite = Arc_core.Rewrite
module Conventions = Arc_value.Conventions
module Relation = Arc_relation.Relation
module Database = Arc_relation.Database
module Eval = Arc_engine.Eval
module V = Arc_value.Value

let i = V.int

let schemas = [ ("R", [ "A"; "B" ]); ("S", [ "B"; "C" ]) ]

let random_db seed =
  let rng = Random.State.make [| seed |] in
  Database.of_list
    (List.map
       (fun (name, attrs) ->
         let rows =
           List.init
             (Random.State.int rng 6)
             (fun _ ->
               List.map (fun _ -> V.Int (Random.State.int rng 4)) attrs)
         in
         (name, Relation.of_rows attrs rows))
       schemas)

let equal_on_random_dbs ?(conv = Conventions.sql_set) q1 q2 =
  List.for_all
    (fun seed ->
      let db = random_db seed in
      let r1 = Eval.run_rows ~conv ~db (program q1) in
      let r2 = Eval.run_rows ~conv ~db (program q2) in
      Relation.equal_set r1 r2)
    (List.init 25 (fun x -> x))

(* --- push_negation ------------------------------------------------- *)

let push_negation_structure () =
  let p1 = eq (attr "r" "A") (cint 1) in
  let p2 = eq (attr "r" "B") (cint 2) in
  Alcotest.(check bool) "double negation" true
    (equal_formula (Rewrite.push_negation (Not (Not p1))) p1);
  Alcotest.(check bool) "de morgan or" true
    (equal_formula
       (Rewrite.push_negation (Not (Or [ p1; p2 ])))
       (And [ Not p1; Not p2 ]));
  Alcotest.(check bool) "de morgan and" true
    (equal_formula
       (Rewrite.push_negation (Not (And [ p1; p2 ])))
       (Or [ Not p1; Not p2 ]));
  let in_nested body =
    exists
      [ bind_in "x" (collection "X" [ "A" ] (exists [ bind "r" "R" ] body)) ]
      True
  in
  Alcotest.(check bool) "double negation in a nested collection" true
    (equal_formula
       (Rewrite.push_negation (in_nested (Not (Not p1))))
       (in_nested p1))

let push_negation_preserves () =
  (* the Eq 17 query (negation over a disjunction) before/after, on random
     unary instances with occasional NULLs (its schema is R(A), S(A)) *)
  let q = Coll Arc_catalog.Data.eq17 in
  let q' =
    match q with
    | Coll c -> Coll { c with body = Rewrite.push_negation c.body }
    | s -> s
  in
  let random_unary_db seed =
    let rng = Random.State.make [| seed |] in
    let rows () =
      List.init
        (Random.State.int rng 5)
        (fun _ ->
          [
            (if Random.State.int rng 5 = 0 then V.Null
             else V.Int (Random.State.int rng 3));
          ])
    in
    Database.of_list
      [
        ("R", Relation.of_rows [ "A" ] (rows ()));
        ("S", Relation.of_rows [ "A" ] (rows ()));
      ]
  in
  List.iter
    (fun conv ->
      List.iter
        (fun seed ->
          let db = random_unary_db seed in
          let r1 = Eval.run_rows ~conv ~db (program q) in
          let r2 = Eval.run_rows ~conv ~db (program q') in
          Alcotest.(check bool) "same result" true (Relation.equal_set r1 r2))
        (List.init 20 (fun x -> x)))
    [ Conventions.sql_set; Conventions.classical ]

(* --- merge_nested_exists ------------------------------------------- *)

let unnest_structure () =
  let nested = Coll Arc_catalog.Data.sec27_nested in
  let unnested = Coll Arc_catalog.Data.sec27_unnested in
  Alcotest.(check bool) "merges to the unnested form" true
    (equal_query (Rewrite.merge_nested_exists nested) unnested);
  (* grouping scopes are not merged *)
  let grouped = Coll Arc_catalog.Data.eq27 in
  Alcotest.(check bool) "grouping scopes untouched" true
    (equal_query (Rewrite.merge_nested_exists grouped) grouped)

let unnest_set_sound_bag_unsound () =
  let nested = Coll Arc_catalog.Data.sec27_nested in
  let merged = Rewrite.merge_nested_exists nested in
  Alcotest.(check bool) "sound under set semantics" true
    (equal_on_random_dbs ~conv:Conventions.sql_set nested merged);
  (* the paper's bag counterexample *)
  let db =
    Database.of_list
      [
        ("R", Relation.of_rows [ "A"; "B" ] [ [ i 1; i 7 ] ]);
        ("S", Relation.of_rows [ "B"; "C" ] [ [ i 7; i 0 ]; [ i 7; i 1 ] ]);
      ]
  in
  let card q =
    Relation.cardinality (Eval.run_rows ~conv:Conventions.sql ~db (program q))
  in
  Alcotest.(check bool) "bag multiplicities differ" true
    (card nested <> card merged)

(* --- inline_definitions -------------------------------------------- *)

let inline_nonrecursive () =
  let view =
    define "V"
      (collection "V" [ "A" ]
         (exists [ bind "r" "R" ]
            (conj [ eq (attr "V" "A") (attr "r" "A"); gt (attr "r" "B") (cint 1) ])))
  in
  let main =
    coll "Q" [ "A" ]
      (exists [ bind "v" "V" ] (eq (attr "Q" "A") (attr "v" "A")))
  in
  let prog = program ~defs:[ view ] main in
  let inlined = Rewrite.inline_definitions prog in
  Alcotest.(check int) "definition eliminated" 0
    (List.length inlined.defs);
  List.iter
    (fun seed ->
      let db = random_db seed in
      let r1 = Eval.run_rows ~db prog in
      let r2 = Eval.run_rows ~db inlined in
      Alcotest.(check bool) "same result" true (Relation.equal_set r1 r2))
    [ 1; 2; 3; 4; 5 ]

let inline_keeps_recursive_and_abstract () =
  let prog =
    {
      defs = Arc_catalog.Data.eq16_defs;
      main = Coll Arc_catalog.Data.eq16_main;
    }
  in
  let inlined = Rewrite.inline_definitions prog in
  Alcotest.(check int) "recursive def kept" 1 (List.length inlined.defs);
  let prog2 =
    {
      defs = [ Arc_catalog.Data.eq23_subset ];
      main = Coll Arc_catalog.Data.eq24;
    }
  in
  let inlined2 = Rewrite.inline_definitions prog2 in
  Alcotest.(check int) "abstract def kept" 1 (List.length inlined2.defs)

(* --- dedup_wrap ----------------------------------------------------- *)

let dedup_wrap_works () =
  let counter = ref 0 in
  let fresh p =
    incr counter;
    Printf.sprintf "%s_%d" p !counter
  in
  let base =
    collection "Q" [ "A" ]
      (exists [ bind "r" "R" ] (eq (attr "Q" "A") (attr "r" "A")))
  in
  let wrapped = Rewrite.dedup_wrap ~fresh base in
  let db =
    Database.of_list
      [ ("R", Relation.of_rows [ "A"; "B" ] [ [ i 1; i 0 ]; [ i 1; i 1 ] ]) ]
  in
  let bag =
    Eval.run_rows ~conv:Conventions.sql ~db (program (Coll base))
  in
  let deduped =
    Eval.run_rows ~conv:Conventions.sql ~db (program (Coll wrapped))
  in
  Alcotest.(check int) "bag has 2" 2 (Relation.cardinality bag);
  Alcotest.(check int) "wrapped has 1" 1 (Relation.cardinality deduped);
  Alcotest.(check bool) "wrapped validates" true
    (Arc_core.Analysis.validate_query (Coll wrapped) = Ok ())

(* property: push_negation is idempotent and preserves canonical meaning *)
let prop_push_negation_idempotent =
  let gen =
    QCheck.Gen.(
      let pred_g =
        let* a = int_bound 3 in
        let* b = int_bound 3 in
        return (Pred (Cmp (Eq, Const (V.Int a), Const (V.Int b))))
      in
      let rec f depth =
        if depth = 0 then pred_g
        else
          frequency
            [
              (2, pred_g);
              (2, map (fun x -> Not x) (f (depth - 1)));
              (2, map (fun l -> And l) (list_size (int_range 2 3) (f (depth - 1))));
              (2, map (fun l -> Or l) (list_size (int_range 2 3) (f (depth - 1))));
            ]
      in
      f 3)
  in
  QCheck.Test.make ~name:"push_negation idempotent" ~count:200
    (QCheck.make gen) (fun f ->
      let once = Rewrite.push_negation f in
      equal_formula once (Rewrite.push_negation once))

let () =
  Alcotest.run "arc_rewrite"
    [
      ( "push_negation",
        [
          Alcotest.test_case "structure" `Quick push_negation_structure;
          Alcotest.test_case "evaluation-preserving" `Quick
            push_negation_preserves;
        ] );
      ( "unnesting",
        [
          Alcotest.test_case "structure" `Quick unnest_structure;
          Alcotest.test_case "set-sound, bag-unsound" `Quick
            unnest_set_sound_bag_unsound;
        ] );
      ( "inlining",
        [
          Alcotest.test_case "non-recursive views" `Quick inline_nonrecursive;
          Alcotest.test_case "recursive/abstract kept" `Quick
            inline_keeps_recursive_and_abstract;
        ] );
      ( "dedup",
        [ Alcotest.test_case "distinct encoding" `Quick dedup_wrap_works ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_push_negation_idempotent ] );
    ]
