(* Incremental view maintenance tests.

   The single invariant everything here enforces: after any sequence of
   batches, every maintained view is bag-equal to evaluating its program
   from scratch on the updated database — across all eight convention
   combos ({Set,Bag} x {2VL,3VL} x {Agg_null,Agg_zero}), for counting
   views (joins/filters/projections and grouped aggregates), recursive
   views (recomputed strata), and the counted fallback path. *)

open Arc_core.Ast
open Arc_core.Build
module V = Arc_value.Value
module Conventions = Arc_value.Conventions
module Relation = Arc_relation.Relation
module Tuple = Arc_relation.Tuple
module Schema = Arc_relation.Schema
module Database = Arc_relation.Database
module Eval = Arc_engine.Eval
module Exec = Arc_engine.Exec
module Ir = Arc_plan.Ir
module Ivm = Arc_ivm.Ivm
module Delta = Arc_ivm.Delta
module Metrics = Arc_obs.Metrics

let i = V.int
let s = V.str

let all_convs =
  List.concat_map
    (fun collection ->
      List.concat_map
        (fun null_logic ->
          List.map
            (fun agg_empty ->
              { Conventions.collection; null_logic; agg_empty })
            [ Conventions.Agg_null; Conventions.Agg_zero ])
        [ Conventions.Two_valued; Conventions.Three_valued ])
    [ Conventions.Set; Conventions.Bag ]

(* A batch row against a named relation's schema. *)
let row db rel vs =
  Tuple.make (Relation.schema (Database.find db rel)) (Array.of_list vs)

let check_against_scratch ~conv ivm name prog =
  let fresh =
    match Eval.run ~conv ~db:(Ivm.db ivm) prog with
    | Eval.Rows r -> Relation.sort r
    | Eval.Truth _ -> Alcotest.fail "expected rows"
  in
  let maintained = Ivm.result ivm name in
  if not (Relation.equal_bag maintained fresh) then
    Alcotest.failf "[%s] %s diverged from scratch:@.maintained:@.%s@.fresh:@.%s"
      (Conventions.to_string conv) name
      (Relation.to_table maintained)
      (Relation.to_table fresh);
  match Ivm.check ivm with
  | [] -> ()
  | (v, _, _) :: _ ->
      Alcotest.failf "[%s] Ivm.check flagged %s" (Conventions.to_string conv) v

let for_all_convs f () = List.iter f all_convs

(* ------------------------------------------------------------------ *)
(* Non-recursive: join + filter + projection                           *)
(* ------------------------------------------------------------------ *)

(* Q(a, c) from R(a, b) |><| S(b, c) with a filter on c. *)
let join_prog =
  program
    (coll "Q" [ "a"; "c" ]
       (exists
          [ bind "r" "R"; bind "s" "S" ]
          (conj
             [
               eq (attr "Q" "a") (attr "r" "a");
               eq (attr "r" "b") (attr "s" "b");
               eq (attr "Q" "c") (attr "s" "c");
               lt (attr "s" "c") (cint 100);
             ])))

let join_db () =
  Database.of_list
    [
      ( "R",
        Relation.of_rows [ "a"; "b" ]
          [ [ i 1; i 10 ]; [ i 2; i 20 ]; [ i 2; i 20 ]; [ i 3; i 30 ] ] );
      ( "S",
        Relation.of_rows [ "b"; "c" ]
          [ [ i 10; i 7 ]; [ i 20; i 8 ]; [ i 30; i 999 ] ] );
    ]

let join_incremental conv =
  let db = join_db () in
  let ivm = Ivm.create ~conv ~db () in
  Ivm.register ivm ~name:"Q" join_prog;
  let step batch =
    let reports = Ivm.apply ivm batch in
    List.iter
      (fun r ->
        if r.Ivm.vr_fallbacks > 0 then
          Alcotest.failf "[%s] join view fell back (%s)"
            (Conventions.to_string conv) r.Ivm.vr_mode)
      reports;
    check_against_scratch ~conv ivm "Q" join_prog
  in
  (* insert a matching pair, delete one duplicate, touch both sides *)
  step [ ("R", [ (row db "R" [ i 4; i 20 ], 1) ]) ];
  step [ ("R", [ (row db "R" [ i 2; i 20 ], -1) ]) ];
  step
    [
      ("R", [ (row db "R" [ i 1; i 10 ], -1); (row db "R" [ i 5; i 30 ], 1) ]);
      ("S", [ (row db "S" [ i 30; i 9 ], 1); (row db "S" [ i 10; i 7 ], -1) ]);
    ];
  step [ ("S", [ (row db "S" [ i 20; i 8 ], -1) ]) ]

(* ------------------------------------------------------------------ *)
(* Non-recursive: grouped aggregate                                    *)
(* ------------------------------------------------------------------ *)

(* T(k, total) = sum of v per key k, groups appearing and vanishing. *)
let agg_prog =
  program
    (coll "T" [ "k"; "total" ]
       (exists
          ~grouping:[ ("o", "k") ]
          [ bind "o" "O" ]
          (conj
             [
               eq (attr "T" "k") (attr "o" "k");
               eq (attr "T" "total") (sum (attr "o" "v"));
             ])))

let agg_db () =
  Database.of_list
    [
      ( "O",
        Relation.of_rows [ "k"; "v" ]
          [
            [ i 1; i 10 ];
            [ i 1; i 32 ];
            [ i 2; i 5 ];
            [ V.Null; i 3 ];
          ] );
    ]

let agg_incremental conv =
  let db = agg_db () in
  let ivm = Ivm.create ~conv ~db () in
  Ivm.register ivm ~name:"T" agg_prog;
  let step batch =
    ignore (Ivm.apply ivm batch);
    check_against_scratch ~conv ivm "T" agg_prog
  in
  (* grow an existing group *)
  step [ ("O", [ (row db "O" [ i 1; i 100 ], 1) ]) ];
  (* delete a whole group *)
  step [ ("O", [ (row db "O" [ i 2; i 5 ], -1) ]) ];
  (* new group + NULL-keyed rows (canonical key groups NULL with NULL) *)
  step
    [ ("O", [ (row db "O" [ i 7; i 1 ], 1); (row db "O" [ V.Null; i 4 ], 1) ]) ];
  step [ ("O", [ (row db "O" [ V.Null; i 3 ], -1) ]) ];
  Alcotest.(check int)
    "aggregate stays on the counting path" 0 (Ivm.fallback_total ivm)

(* Aggregates over a join (a two-slot row layout), with MIN, MAX, AVG,
   COUNT DISTINCT and HAVING, and a γ∅ view whose input is deleted down
   to empty, where the empty group's row depends on agg_empty. *)
let rollup_prog =
  Arc_syntax.Parser.program_of_string
    "{T(region, lo, hi, a, d) | exists o in O, c in C, gamma_{c.region}[o.c \
     = c.c and T.region = c.region and T.lo = min(o.v) and T.hi = max(o.v) \
     and T.a = avg(o.v) and T.d = count_distinct(o.v) and count(o.v) >= 2]}"

let empty_prog =
  Arc_syntax.Parser.program_of_string
    "{E(n, t) | exists o in O, gamma_0[E.n = count(o.v) and E.t = sum(o.v)]}"

let rollup_db () =
  Database.of_list
    [
      ( "O",
        Relation.of_rows [ "k"; "c"; "v" ]
          [
            [ i 1; i 1; i 10 ];
            [ i 2; i 1; i 10 ];
            [ i 3; i 2; i 5 ];
            [ i 4; i 3; i 7 ];
          ] );
      ( "C",
        Relation.of_rows [ "c"; "region" ]
          [ [ i 1; i 1 ]; [ i 2; i 1 ]; [ i 3; i 2 ] ] );
    ]

let positional_aggregates conv =
  let db = rollup_db () in
  let ivm = Ivm.create ~conv ~db () in
  Ivm.register ivm ~name:"T" rollup_prog;
  Ivm.register ivm ~name:"E" empty_prog;
  let o k c v = row db "O" [ i k; i c; i v ] in
  List.iter
    (fun batch ->
      ignore (Ivm.apply ivm batch);
      check_against_scratch ~conv ivm "T" rollup_prog;
      check_against_scratch ~conv ivm "E" empty_prog)
    [
      (* region 2 passes HAVING; region 1's MIN and MAX move *)
      [ ("O", [ (o 5 3 9, 1); (o 6 1 2, 1); (o 3 2 5, -1) ]) ];
      (* a customer moves region: whole groups change support *)
      [
        ( "C",
          [ (row db "C" [ i 3; i 2 ], -1); (row db "C" [ i 3; i 1 ], 1) ] );
      ];
      (* every order goes: the γ∅ row falls back to its empty value *)
      [
        ( "O",
          [ (o 1 1 10, -1); (o 2 1 10, -1); (o 4 3 7, -1); (o 5 3 9, -1);
            (o 6 1 2, -1) ] );
      ];
      [ ("O", [ (o 7 2 4, 1) ]) ];
      [ ("O", [ (o 7 2 4, -1) ]) ];
    ];
  (* seeding over an empty input emits the γ∅ row too *)
  Ivm.register ivm ~name:"E0" empty_prog;
  check_against_scratch ~conv ivm "E0" empty_prog;
  Alcotest.(check int)
    (Printf.sprintf "[%s] aggregates stay on the counting path"
       (Conventions.to_string conv))
    0 (Ivm.fallback_total ivm)

(* Counting maintenance runs scan-substituted copies of a pipeline and
   keeps their rows as one group's support: a substituted plan has the
   seeded pipeline's layout. *)
let delta_plan_layout () =
  let db = rollup_db () in
  let db = Database.add db "O2" (Database.find db "O") in
  let ctx, _, plan, _ = Exec.compile ~db rollup_prog in
  match plan.Ir.main with
  | Ir.Main_coll { disjuncts = [ Ir.Aggregate { input; _ } ]; _ } ->
      let layout, rows = Exec.exec_pipeline ctx input in
      let delta = Ir.subst_scans_with_t [ "O" ] (fun _ _ -> Some "O2") input in
      let delta_layout, delta_rows = Exec.exec_pipeline ctx delta in
      Alcotest.(check int) "two slots" 2 (Array.length layout);
      Alcotest.(check (array string)) "same layout" layout delta_layout;
      Alcotest.(check int)
        "same rows" (Array.length rows) (Array.length delta_rows)
  | _ -> Alcotest.fail "expected one aggregate disjunct"

(* ------------------------------------------------------------------ *)
(* Recursive: transitive closure                                       *)
(* ------------------------------------------------------------------ *)

let tc_defs =
  [
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
                [ bind "p" "P"; bind "a" "A" ]
                (conj
                   [
                     eq (attr "A" "s") (attr "p" "s");
                     eq (attr "p" "t") (attr "a" "s");
                     eq (attr "A" "t") (attr "a" "t");
                   ]);
            ]));
  ]

let tc_prog =
  program ~defs:tc_defs
    (coll "Q" [ "s"; "t" ]
       (exists [ bind "a" "A" ]
          (conj
             [
               eq (attr "Q" "s") (attr "a" "s");
               eq (attr "Q" "t") (attr "a" "t");
             ])))

let tc_db () =
  Database.of_list
    [
      ( "P",
        Relation.of_rows [ "s"; "t" ]
          [ [ i 1; i 2 ]; [ i 2; i 3 ]; [ i 3; i 4 ]; [ i 5; i 1 ] ] );
    ]

let tc_batches =
  [
    (* pure insertion: connect a new node *)
    (fun db -> [ ("P", [ (row db "P" [ i 4; i 6 ], 1) ]) ]);
    (* pure deletion: cut the chain in the middle; paths through (2,3)
       must disappear, including transitively derived ones *)
    (fun db -> [ ("P", [ (row db "P" [ i 2; i 3 ], -1) ]) ]);
    (* mixed: remove one edge, add a shortcut that re-derives some pairs *)
    (fun db ->
      [ ("P", [ (row db "P" [ i 3; i 4 ], -1); (row db "P" [ i 1; i 4 ], 1) ]) ]);
    (* an insert and a delete of one edge cancel: nothing changes *)
    (fun db ->
      [ ("P", [ (row db "P" [ i 1; i 2 ], 1); (row db "P" [ i 1; i 2 ], -1) ]) ]);
  ]

(* The closure joined with a second base relation R: a batch on R alone
   changes the view but no input of the recursive stratum, so it must not
   recompute the stratum. *)
let tc_join_prog =
  program ~defs:tc_defs
    (coll "Q" [ "s"; "t" ]
       (exists
          [ bind "a" "A"; bind "r" "R" ]
          (conj
             [
               eq (attr "r" "x") (attr "a" "s");
               eq (attr "Q" "s") (attr "a" "s");
               eq (attr "Q" "t") (attr "a" "t");
             ])))

let tc_join_db () =
  Database.of_list
    [
      ( "P",
        Relation.of_rows [ "s"; "t" ]
          [ [ i 1; i 2 ]; [ i 2; i 3 ]; [ i 3; i 4 ]; [ i 5; i 1 ] ] );
      ("R", Relation.of_rows [ "x" ] [ [ i 1 ]; [ i 3 ] ]);
    ]

let tc_join_batches =
  [
    (fun db -> [ ("R", [ (row db "R" [ i 2 ], 1) ]) ]);
    (fun db -> [ ("R", [ (row db "R" [ i 1 ], -1) ]) ]);
    (fun db ->
      [
        ("R", [ (row db "R" [ i 5 ], 1) ]);
        ("P", [ (row db "P" [ i 4; i 6 ], 1) ]);
      ]);
    (fun db -> [ ("P", [ (row db "P" [ i 2; i 3 ], -1) ]) ]);
  ]

(* ------------------------------------------------------------------ *)
(* Recursive shapes: cycles, non-linear and mutual recursion           *)
(* ------------------------------------------------------------------ *)

let recursive_fallbacks m =
  Metrics.counter_value m
    ~labels:[ ("view", "V"); ("reason", "recursive") ]
    "arc_ivm_fallbacks_total"

(* Every convention: each batch must leave the view bag-equal to
   scratch, and each batch that changes P's visible value must recompute
   the view's one recursive stratum once, counted as one fallback with
   reason [recursive]; a batch that changes nothing recomputes nothing. *)
let recursion_case ~db ~prog batches () =
  List.iter
    (fun conv ->
      let metrics = Metrics.create () in
      let ivm = Ivm.create ~conv ~metrics ~db () in
      Ivm.register ivm ~name:"V" prog;
      let visible () =
        let p = Database.find (Ivm.db ivm) "P" in
        match conv.Conventions.collection with
        | Conventions.Set -> Relation.dedup p
        | Conventions.Bag -> p
      in
      List.iteri
        (fun k batch ->
          let before = visible () and fb0 = recursive_fallbacks metrics in
          ignore (Ivm.apply ivm (batch db));
          check_against_scratch ~conv ivm "V" prog;
          let changed = not (Relation.equal_bag before (visible ())) in
          Alcotest.(check int)
            (Printf.sprintf "[%s] batch %d: recursive recomputes"
               (Conventions.to_string conv) k)
            (if changed then 1 else 0)
            (recursive_fallbacks metrics - fb0))
        batches;
      Alcotest.(check int)
        (Printf.sprintf "[%s] every fallback is recursive"
           (Conventions.to_string conv))
        (Ivm.fallback_total ivm) (recursive_fallbacks metrics))
    all_convs

let edges es =
  Database.of_list
    [
      ( "P",
        Relation.of_rows [ "s"; "t" ]
          (List.map (fun (a, b) -> [ i a; i b ]) es) );
    ]

let edge db (a, b) n = ("P", [ (row db "P" [ i a; i b ], n) ])

(* A cycle 0→1→2→3→0 with a tail 3→4→5: every pair on the cycle has a
   second derivation around it, so deleting one cycle edge removes some
   pairs and keeps others. *)
let cycle_batches =
  [
    (fun db -> [ edge db (1, 2) (-1) ]);
    (fun db -> [ edge db (1, 2) 1 ]);
    (fun db -> [ edge db (3, 0) (-1) ]);
    (fun db ->
      [ ("P", [ (row db "P" [ i 3; i 0 ], 1); (row db "P" [ i 0; i 1 ], -1) ]) ]);
    (fun db ->
      [ ("P", [ (row db "P" [ i 0; i 1 ], 1); (row db "P" [ i 4; i 5 ], -1) ]) ]);
    (fun db -> [ edge db (4, 5) 1 ]);
  ]

let cycle_db () = edges [ (0, 1); (1, 2); (2, 3); (3, 0); (3, 4); (4, 5) ]

(* Non-linear transitive closure: A := P ∪ A ⋈ A, two component
   occurrences in one disjunct. *)
let nonlinear_prog =
  program
    ~defs:
      [
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
                    [ bind "a" "A"; bind "b" "A" ]
                    (conj
                       [
                         eq (attr "A" "s") (attr "a" "s");
                         eq (attr "a" "t") (attr "b" "s");
                         eq (attr "A" "t") (attr "b" "t");
                       ]);
                ]));
      ]
    (coll "Q" [ "s"; "t" ]
       (exists [ bind "a" "A" ]
          (conj
             [
               eq (attr "Q" "s") (attr "a" "s");
               eq (attr "Q" "t") (attr "a" "t");
             ])))

(* Two mutually recursive definitions: Odd/Even hold the pairs joined by
   a path of odd/even length. *)
let step_from src other =
  exists
    [ bind "p" "P"; bind "x" other ]
    (conj
       [
         eq (attr src "s") (attr "p" "s");
         eq (attr "p" "t") (attr "x" "s");
         eq (attr src "t") (attr "x" "t");
       ])

let mutual_prog =
  program
    ~defs:
      [
        define "Odd"
          (collection "Odd" [ "s"; "t" ]
             (disj
                [
                  exists [ bind "p" "P" ]
                    (conj
                       [
                         eq (attr "Odd" "s") (attr "p" "s");
                         eq (attr "Odd" "t") (attr "p" "t");
                       ]);
                  step_from "Odd" "Even";
                ]));
        define "Even" (collection "Even" [ "s"; "t" ] (step_from "Even" "Odd"));
      ]
    (coll "Q" [ "s"; "t" ]
       (exists [ bind "e" "Even" ]
          (conj
             [
               eq (attr "Q" "s") (attr "e" "s");
               eq (attr "Q" "t") (attr "e" "t");
             ])))

(* Even-length paths, with two input occurrences in each disjunct: a
   batch removing two adjacent edges deletes a pair whose only
   derivation reads both. *)
let even_prog =
  let hop2 src extra =
    exists
      (extra @ [ bind "p" "P"; bind "q" "P" ])
      (conj
         ((if extra = [] then [ eq (attr src "s") (attr "p" "s") ]
           else
             [ eq (attr src "s") (attr "e" "s"); eq (attr "e" "t") (attr "p" "s") ])
         @ [ eq (attr "p" "t") (attr "q" "s"); eq (attr src "t") (attr "q" "t") ]))
  in
  program
    ~defs:
      [
        define "E"
          (collection "E" [ "s"; "t" ]
             (disj [ hop2 "E" []; hop2 "E" [ bind "e" "E" ] ]));
      ]
    (coll "Q" [ "s"; "t" ]
       (exists [ bind "e" "E" ]
          (conj
             [
               eq (attr "Q" "s") (attr "e" "s");
               eq (attr "Q" "t") (attr "e" "t");
             ])))

let chain_db n = edges (List.init n (fun k -> (k, k + 1)))

let pair_batches =
  [
    (fun db ->
      [ ("P", [ (row db "P" [ i 0; i 1 ], -1); (row db "P" [ i 1; i 2 ], -1) ]) ]);
    (fun db ->
      [ ("P", [ (row db "P" [ i 0; i 1 ], 1); (row db "P" [ i 1; i 2 ], 1) ]) ]);
  ]

let chain_batches =
  [
    (fun db -> [ edge db (2, 3) (-1) ]);
    (fun db -> [ edge db (6, 0) 1 ]);
    (fun db ->
      [ ("P", [ (row db "P" [ i 2; i 3 ], 1); (row db "P" [ i 4; i 5 ], -1) ]) ]);
    (fun db -> [ edge db (6, 0) (-1) ]);
  ]

(* ------------------------------------------------------------------ *)
(* Budgets                                                             *)
(* ------------------------------------------------------------------ *)

(* A guard that trips inside recursive maintenance surfaces as the
   documented typed [Eval_error], not the governor's internal exception. *)
let budget_error_typed () =
  let db = chain_db 10 in
  let ivm = Ivm.create ~conv:Conventions.sql_set ~db () in
  Ivm.register ivm ~name:"TC" tc_prog;
  let guard =
    Arc_guard.Gov.make
      { Arc_guard.Budget.unlimited with Arc_guard.Budget.max_iterations = Some 3 }
  in
  match Ivm.apply ~guard ivm [ edge db (10, 11) 1 ] with
  | _ -> Alcotest.fail "expected the iteration budget to trip"
  | exception Eval.Eval_error _ -> ()
  | exception e ->
      Alcotest.failf "budget trip escaped untyped: %s" (Printexc.to_string e)

(* A head attribute without an assignment raises the executor's typed
   error, naming its collection, from registration and from a batch. *)
let unassigned_head_typed () =
  let prog =
    Arc_syntax.Parser.program_of_string "{Q(A, B) | exists r in R[Q.A = r.A]}"
  in
  let r_db rows = Database.of_list [ ("R", Relation.of_rows [ "A" ] rows) ] in
  let expect what f =
    match ignore (f ()) with
    | () -> Alcotest.failf "%s: expected Eval_error" what
    | exception
        Eval.Eval_error
          { kind = Arc_guard.Error.Head_unassigned { head; attr }; context } ->
        Alcotest.(check (list string)) (what ^ ": attribute") [ "Q"; "B" ]
          [ head; attr ];
        Alcotest.(check (list string)) (what ^ ": context") [ "Q" ] context
  in
  let db = r_db [ [ i 1 ] ] in
  expect "Exec.run" (fun () -> Exec.run ~db prog);
  expect "register" (fun () ->
      Ivm.register (Ivm.create ~db ()) ~name:"Q" prog);
  let ivm = Ivm.create ~db:(r_db []) () in
  Ivm.register ivm ~name:"Q" prog;
  expect "apply" (fun () ->
      Ivm.apply ivm [ ("R", [ (row db "R" [ i 1 ], 1) ]) ])

(* ------------------------------------------------------------------ *)
(* Fallback: anti-join views recompute but stay correct                *)
(* ------------------------------------------------------------------ *)

let anti_prog =
  program
    (coll "Q" [ "a" ]
       (exists [ bind "r" "R" ]
          (conj
             [
               eq (attr "Q" "a") (attr "r" "a");
               not_
                 (exists [ bind "s" "S" ]
                    (eq (attr "r" "b") (attr "s" "b")));
             ])))

let anti_fallback conv =
  let db =
    Database.of_list
      [
        ( "R",
          Relation.of_rows [ "a"; "b" ] [ [ i 1; i 10 ]; [ i 2; i 20 ] ] );
        ("S", Relation.of_rows [ "b" ] [ [ i 20 ] ]);
      ]
  in
  let metrics = Metrics.create () in
  let ivm = Ivm.create ~conv ~metrics ~db () in
  Ivm.register ivm ~name:"Q" anti_prog;
  let reports = Ivm.apply ivm [ ("S", [ (row db "S" [ i 10 ], 1) ]) ] in
  check_against_scratch ~conv ivm "Q" anti_prog;
  let q = List.find (fun r -> r.Ivm.vr_view = "Q") reports in
  Alcotest.(check string) "anti-join recomputes" "fallback" q.Ivm.vr_mode;
  Alcotest.(check int) "fallback is counted" 1 (Ivm.fallback_total ivm);
  Alcotest.(check int)
    "counted under reason anti_join" 1
    (Metrics.counter_value metrics
       ~labels:[ ("view", "Q"); ("reason", "anti_join") ]
       "arc_ivm_fallbacks_total")

(* ------------------------------------------------------------------ *)
(* Batch semantics                                                     *)
(* ------------------------------------------------------------------ *)

let inverse_roundtrip conv =
  let db = join_db () in
  let ivm = Ivm.create ~conv ~db () in
  Ivm.register ivm ~name:"Q" join_prog;
  let before_db = Ivm.db ivm in
  let before = Ivm.result ivm "Q" in
  let batch =
    [
      ("R", [ (row db "R" [ i 9; i 20 ], 2); (row db "R" [ i 1; i 10 ], -1) ]);
      ("S", [ (row db "S" [ i 20; i 8 ], -1) ]);
    ]
  in
  ignore (Ivm.apply ivm batch);
  ignore (Ivm.apply ivm (Ivm.inverse batch));
  Alcotest.(check bool)
    "view restored" true
    (Relation.equal_bag before (Ivm.result ivm "Q"));
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " restored") true
        (Relation.equal_bag (Database.find before_db n)
           (Database.find (Ivm.db ivm) n)))
    (Database.names before_db);
  check_against_scratch ~conv ivm "Q" join_prog

let atomic_on_error () =
  let db = join_db () in
  let ivm = Ivm.create ~conv:Conventions.sql ~db () in
  Ivm.register ivm ~name:"Q" join_prog;
  let before = Ivm.result ivm "Q" in
  (* second relation is unknown: nothing may have been applied *)
  (try
     ignore
       (Ivm.apply ivm
          [
            ("R", [ (row db "R" [ i 8; i 10 ], 1) ]);
            ("Nope", [ (row db "R" [ i 8; i 10 ], 1) ]);
          ]);
     Alcotest.fail "expected Ivm_error"
   with Ivm.Ivm_error _ -> ());
  Alcotest.(check bool)
    "db untouched" true
    (Relation.equal_bag
       (Database.find db "R")
       (Database.find (Ivm.db ivm) "R"));
  Alcotest.(check bool)
    "view untouched" true
    (Relation.equal_bag before (Ivm.result ivm "Q"));
  (* deleting beyond multiplicity is also atomic *)
  (try
     ignore (Ivm.apply ivm [ ("S", [ (row db "S" [ i 10; i 7 ], -5) ]) ]);
     Alcotest.fail "expected Ivm_error"
   with Ivm.Ivm_error _ -> ());
  Alcotest.(check bool)
    "db untouched after underflow" true
    (Relation.equal_bag
       (Database.find db "S")
       (Database.find (Ivm.db ivm) "S"))

let unchanged_views_skipped () =
  let db =
    Database.of_list
      [
        ("R", Relation.of_rows [ "a"; "b" ] [ [ i 1; i 10 ] ]);
        ("S", Relation.of_rows [ "b"; "c" ] [ [ i 10; i 7 ] ]);
        ("Z", Relation.of_rows [ "z" ] [ [ i 1 ] ]);
      ]
  in
  let ivm = Ivm.create ~conv:Conventions.sql_set ~db () in
  Ivm.register ivm ~name:"Q" join_prog;
  let reports = Ivm.apply ivm [ ("Z", [ (row db "Z" [ i 2 ], 1) ]) ] in
  let q = List.find (fun r -> r.Ivm.vr_view = "Q") reports in
  Alcotest.(check string) "untouched deps skip work" "unchanged" q.Ivm.vr_mode;
  Alcotest.(check int) "no output delta" 0 q.Ivm.vr_out_delta

(* View names must stay out of the engine's working namespace: a view
   registered as "__ivm__X" would collide with maintenance scratch
   relations (and "__delta__X" with seminaive deltas). *)
let reserved_view_names_rejected () =
  let db = join_db () in
  let ivm = Ivm.create ~conv:Conventions.sql_set ~db () in
  List.iter
    (fun name ->
      try
        Ivm.register ivm ~name join_prog;
        Alcotest.failf "view name %S unexpectedly accepted" name
      with Ivm.Ivm_error msg ->
        let contains needle hay =
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool)
          (name ^ " error names the reserved namespace")
          true
          (contains "reserved" msg))
    [ "__ivm__X"; "__ivm__old__R"; "__delta__Q" ];
  Alcotest.(check (list string)) "nothing registered" [] (Ivm.views ivm)

(* ------------------------------------------------------------------ *)
(* Delta module basics                                                 *)
(* ------------------------------------------------------------------ *)

let delta_basics () =
  let sch = Schema.make [ "a" ] in
  let t1 = Tuple.make sch [| i 1 |] and t2 = Tuple.make sch [| i 2 |] in
  let d = Delta.of_list [ (t1, 2); (t2, -1); (t1, -2) ] in
  Alcotest.(check int) "cancelled entry dropped" 0 (Delta.count d t1);
  Alcotest.(check int) "net count" (-1) (Delta.count d t2);
  Alcotest.(check int) "cardinality is abs sum" 1 (Delta.cardinality d);
  Alcotest.(check int) "negate flips" 1 (Delta.count (Delta.negate d) t2);
  (* Int/Float and Null/Null match under the canonical key *)
  let tf = Tuple.make sch [| V.float 1.0 |] in
  let d2 = Delta.of_list [ (t1, 1); (tf, -1) ] in
  Alcotest.(check bool) "Int 1 cancels Float 1.0" true (Delta.is_empty d2);
  let tn = Tuple.make sch [| V.Null |] in
  let d3 = Delta.of_list [ (tn, 1); (tn, 1) ] in
  Alcotest.(check int) "Null matches Null" 2 (Delta.count d3 tn)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "ivm"
    [
      ( "delta",
        [ Alcotest.test_case "signed multiset basics" `Quick delta_basics ] );
      ( "counting",
        [
          Alcotest.test_case "join/filter/projection, all convs" `Quick
            (for_all_convs join_incremental);
          Alcotest.test_case "grouped aggregate, all convs" `Quick
            (for_all_convs agg_incremental);
          Alcotest.test_case "aggregates over a join, γ∅ to empty, all convs"
            `Quick (for_all_convs positional_aggregates);
          Alcotest.test_case "delta plans keep the pipeline's layout" `Quick
            delta_plan_layout;
        ] );
      ( "recursion",
        [
          Alcotest.test_case "transitive closure, all convs" `Quick
            (recursion_case ~db:(tc_db ()) ~prog:tc_prog tc_batches);
          Alcotest.test_case "cycle deletes and restores, all convs" `Quick
            (recursion_case ~db:(cycle_db ()) ~prog:tc_prog cycle_batches);
          Alcotest.test_case "non-linear TC, all convs" `Quick
            (recursion_case ~db:(cycle_db ()) ~prog:nonlinear_prog
               (cycle_batches @ chain_batches));
          Alcotest.test_case "mutual recursion, all convs" `Quick
            (recursion_case ~db:(chain_db 6) ~prog:mutual_prog chain_batches);
          Alcotest.test_case "two input occurrences, all convs" `Quick
            (recursion_case ~db:(chain_db 6) ~prog:even_prog
               (pair_batches @ chain_batches));
          Alcotest.test_case "closure joined with a base relation" `Quick
            (recursion_case ~db:(tc_join_db ()) ~prog:tc_join_prog
               tc_join_batches);
        ] );
      ( "fallback",
        [
          Alcotest.test_case "anti-join recomputes, all convs" `Quick
            (for_all_convs anti_fallback);
        ] );
      ( "batches",
        [
          Alcotest.test_case "inverse batch restores, all convs" `Quick
            (for_all_convs inverse_roundtrip);
          Alcotest.test_case "atomic on error" `Quick atomic_on_error;
          Alcotest.test_case "unchanged views are skipped" `Quick
            unchanged_views_skipped;
          Alcotest.test_case "reserved view names rejected" `Quick
            reserved_view_names_rejected;
          Alcotest.test_case "budget trip raises Eval_error" `Quick
            budget_error_typed;
          Alcotest.test_case "unassigned head raises Eval_error" `Quick
            unassigned_head_typed;
        ] );
    ]
