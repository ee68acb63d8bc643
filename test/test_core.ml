(* Core AST tests: builders, validation, predicate classification, safety,
   canonicalization, pattern signatures. *)

open Arc_core.Ast
open Arc_core.Build
module Analysis = Arc_core.Analysis
module Canon = Arc_core.Canon
module Pattern = Arc_core.Pattern
module Pp = Arc_core.Pp
module External = Arc_core.External
module V = Arc_value.Value

let schemas =
  [
    ("R", [ "A"; "B" ]); ("S", [ "B"; "C" ]); ("L", [ "d"; "b" ]);
    ("P", [ "s"; "t" ]);
  ]

let env = Analysis.env ~schemas ()

(* Eq (1) *)
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

let validate_ok () =
  match Analysis.validate_query ~env eq1 with
  | Ok () -> ()
  | Error es ->
      Alcotest.failf "unexpected errors: %s"
        (String.concat "; " (List.map Analysis.error_to_string es))

let expect_error name q pred =
  match Analysis.validate_query ~env q with
  | Ok () -> Alcotest.failf "%s: expected a validation error" name
  | Error es ->
      if not (List.exists pred es) then
        Alcotest.failf "%s: wrong errors: %s" name
          (String.concat "; " (List.map Analysis.error_to_string es))

let validate_unbound () =
  expect_error "unbound var"
    (coll "Q" [ "A" ]
       (exists [ bind "r" "R" ] (eq (attr "Q" "A") (attr "zz" "A"))))
    (function Analysis.Unbound_variable "zz" -> true | _ -> false)

let validate_unknown_attr () =
  expect_error "unknown attr"
    (coll "Q" [ "A" ]
       (exists [ bind "r" "R" ] (eq (attr "Q" "A") (attr "r" "Z"))))
    (function Analysis.Unknown_attribute ("r", "Z") -> true | _ -> false)

let validate_unknown_rel () =
  expect_error "unknown relation"
    (coll "Q" [ "A" ]
       (exists [ bind "r" "NoSuch" ] (eq (attr "Q" "A") (attr "r" "A"))))
    (function Analysis.Unknown_relation "NoSuch" -> true | _ -> false)

let validate_dup_binding () =
  expect_error "duplicate binding"
    (coll "Q" [ "A" ]
       (exists
          [ bind "r" "R"; bind "r" "S" ]
          (eq (attr "Q" "A") (attr "r" "A"))))
    (function Analysis.Duplicate_binding "r" -> true | _ -> false)

let validate_dup_head_attr () =
  expect_error "duplicate head attr"
    (coll "Q" [ "A"; "A" ]
       (exists [ bind "r" "R" ] (eq (attr "Q" "A") (attr "r" "A"))))
    (function Analysis.Duplicate_head_attr ("Q", "A") -> true | _ -> false)

(* "__delta__"/"__ivm__" prefixes are reserved for engine working
   relations (seminaive deltas, IVM state); user programs must not be
   able to name or reference them *)
let validate_reserved_names () =
  expect_error "reserved head name"
    (coll "__delta__Q" [ "A" ]
       (exists [ bind "r" "R" ] (eq (attr "__delta__Q" "A") (attr "r" "A"))))
    (function
      | Analysis.Reserved_relation_name "__delta__Q" -> true
      | _ -> false);
  expect_error "reserved scan name"
    (coll "Q" [ "A" ]
       (exists [ bind "r" "__ivm__pos__R" ] (eq (attr "Q" "A") (attr "r" "A"))))
    (function
      | Analysis.Reserved_relation_name "__ivm__pos__R" -> true
      | _ -> false);
  let bad_env =
    Analysis.env ~schemas:(("__delta__R", [ "A" ]) :: schemas) ()
  in
  (match
     Analysis.validate ~env:bad_env
       (program
          (coll "Q" [ "A" ]
             (exists [ bind "r" "R" ] (eq (attr "Q" "A") (attr "r" "A")))))
   with
  | Error es
    when List.exists
           (function
             | Analysis.Reserved_relation_name "__delta__R" -> true
             | _ -> false)
           es ->
      ()
  | Ok () -> Alcotest.fail "reserved base schema: expected an error"
  | Error es ->
      Alcotest.failf "reserved base schema: wrong errors: %s"
        (String.concat "; " (List.map Analysis.error_to_string es)));
  Alcotest.(check bool)
    "error message names the offender" true
    (let msg =
       Analysis.error_to_string (Analysis.Reserved_relation_name "__delta__X")
     in
     let needle = "__delta__X" in
     let nl = String.length needle and ml = String.length msg in
     let rec at k =
       k + nl <= ml && (String.sub msg k nl = needle || at (k + 1))
     in
     at 0)

let validate_agg_needs_grouping () =
  expect_error "aggregate without grouping"
    (coll "Q" [ "sm" ]
       (exists [ bind "r" "R" ] (eq (attr "Q" "sm") (sum (attr "r" "B")))))
    (function Analysis.Aggregate_outside_grouping _ -> true | _ -> false)

let validate_nested_agg () =
  expect_error "nested aggregate"
    (coll "Q" [ "sm" ]
       (exists ~grouping:group_all [ bind "r" "R" ]
          (eq (attr "Q" "sm") (sum (sum (attr "r" "B"))))))
    (function Analysis.Nested_aggregate _ -> true | _ -> false)

let validate_grouping_var () =
  expect_error "grouping var not bound in scope"
    (coll "Q" [ "A" ]
       (exists [ bind "r" "R" ]
          (exists
             ~grouping:[ ("r", "A") ]
             [ bind "s" "S" ]
             (eq (attr "Q" "A") (attr "r" "A")))))
    (function Analysis.Grouping_var_not_bound "r" -> true | _ -> false)

let validate_join_vars () =
  expect_error "join var not bound"
    (coll "Q" [ "A" ]
       (exists
          ~join:(J_left (J_var "r", J_var "zz"))
          [ bind "r" "R"; bind "s" "S" ]
          (eq (attr "Q" "A") (attr "r" "A"))))
    (function Analysis.Join_var_not_bound "zz" -> true | _ -> false);
  expect_error "join var duplicated"
    (coll "Q" [ "A" ]
       (exists
          ~join:(J_inner [ J_var "r"; J_var "r" ])
          [ bind "r" "R"; bind "s" "S" ]
          (eq (attr "Q" "A") (attr "r" "A"))))
    (function Analysis.Join_var_duplicated "r" -> true | _ -> false)

let validate_grouped_head_dependency () =
  expect_error "non-key head assignment in grouping scope"
    (coll "Q" [ "A"; "B" ]
       (exists
          ~grouping:[ ("r", "A") ]
          [ bind "r" "R" ]
          (conj
             [
               eq (attr "Q" "A") (attr "r" "A");
               eq (attr "Q" "B") (attr "r" "B");
             ])))
    (function
      | Analysis.Ungrouped_head_dependency ("Q", "B") -> true | _ -> false)

let validate_head_in_nested () =
  expect_error "outer head referenced in nested collection"
    (coll "Q" [ "A" ]
       (exists
          [
            bind "r" "R";
            bind_in "x"
              (collection "X" [ "B" ]
                 (exists [ bind "s" "S" ]
                    (conj
                       [
                         eq (attr "X" "B") (attr "s" "B");
                         eq (attr "Q" "A") (attr "s" "C");
                       ])));
          ]
          (conj [ eq (attr "Q" "A") (attr "r" "A") ])))
    (function Analysis.Head_in_nested_collection "Q" -> true | _ -> false)

(* head attrs of an enclosing collection visible at depth (Eq 23 pattern) *)
let validate_head_visible_in_own_scopes () =
  let def =
    collection "Subset" [ "left"; "right" ]
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
               ])))
  in
  match Analysis.validate ~env { defs = [ define "Subset" def ]; main = Sentence True } with
  | Ok () -> ()
  | Error es ->
      Alcotest.failf "subset def should validate: %s"
        (String.concat "; " (List.map Analysis.error_to_string es))

(* predicate classification (Section 2.1 / 2.5) *)
let classify () =
  let heads = [ "Q" ] in
  let c p = Analysis.classify ~heads p in
  let assign = Cmp (Eq, Attr ("Q", "A"), Attr ("r", "A")) in
  let comparison = Cmp (Eq, Attr ("r", "B"), Attr ("s", "B")) in
  let agg_assign = Cmp (Eq, Attr ("Q", "sm"), Agg (Arc_value.Aggregate.Sum, Attr ("r", "B"))) in
  let agg_cmp = Cmp (Gt, Attr ("r", "q"), Agg (Arc_value.Aggregate.Count, Attr ("s", "d"))) in
  Alcotest.(check bool) "assignment" true (c assign).Analysis.is_assignment;
  Alcotest.(check bool) "assignment not agg" false
    (c assign).Analysis.is_aggregation;
  Alcotest.(check bool) "comparison" false (c comparison).Analysis.is_assignment;
  Alcotest.(check bool) "agg assignment both" true
    ((c agg_assign).Analysis.is_assignment && (c agg_assign).Analysis.is_aggregation);
  Alcotest.(check bool) "agg comparison" true
    ((c agg_cmp).Analysis.is_aggregation && not (c agg_cmp).Analysis.is_assignment)

(* safety: Eq1 is safe; the raw Minus definition is unsafe (Section 2.13) *)
let safety () =
  let c1 = match eq1 with Coll c -> c | _ -> assert false in
  (match Analysis.collection_safety ~env ~defs:[] c1 with
  | Analysis.Safe -> ()
  | Analysis.Unsafe r -> Alcotest.failf "eq1 should be safe: %s" r);
  let minus_def =
    collection "Minus" [ "left"; "right"; "out" ]
      (eq (attr "Minus" "out") (sub (attr "Minus" "left") (attr "Minus" "right")))
  in
  (match Analysis.collection_safety ~env ~defs:[] minus_def with
  | Analysis.Unsafe _ -> ()
  | Analysis.Safe -> Alcotest.fail "raw Minus definition should be unsafe");
  (* the Subset abstract relation (Eq 23) is unsafe in isolation *)
  let subset =
    collection "Subset" [ "left"; "right" ]
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
               ])))
  in
  match Analysis.collection_safety ~env ~defs:[] subset with
  | Analysis.Unsafe _ -> ()
  | Analysis.Safe -> Alcotest.fail "Subset should be unsafe in isolation"

let safety_externals_resolved () =
  (* Eq (20): Minus resolved through its left/right → out access pattern *)
  let q =
    collection "Q" [ "A" ]
      (exists
         [ bind "r" "R"; bind "s" "S"; bind "f" "Minus" ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              eq (attr "f" "left") (attr "r" "B");
              eq (attr "f" "right") (attr "s" "B");
              gt (attr "f" "out") (cint 0);
            ]))
  in
  (match Analysis.collection_safety ~env ~defs:[] q with
  | Analysis.Safe -> ()
  | Analysis.Unsafe r -> Alcotest.failf "eq20 should be safe: %s" r);
  (* unresolvable external: no seed equations *)
  let bad =
    collection "Q" [ "A" ]
      (exists
         [ bind "f" "Minus" ]
         (eq (attr "Q" "A") (attr "f" "out")))
  in
  match Analysis.collection_safety ~env ~defs:[] bad with
  | Analysis.Unsafe _ -> ()
  | Analysis.Safe -> Alcotest.fail "unseeded Minus should be unsafe"

(* canonicalization *)
let canon_invariance () =
  let variant =
    coll "Out" [ "A" ]
      (exists
         [ bind "x" "R"; bind "y" "S" ]
         (conj
            [
              eq (attr "y" "C") (cint 0);
              eq (attr "x" "B") (attr "y" "B");
              eq (attr "Out" "A") (attr "x" "A");
            ]))
  in
  let c1 = Canon.canonical_query eq1 and c2 = Canon.canonical_query variant in
  Alcotest.(check bool) "rename+reorder invariant" true (equal_query c1 c2);
  Alcotest.(check string) "same skeleton" (Canon.skeleton eq1)
    (Canon.skeleton variant)

let canon_distinguishes () =
  let different =
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
  Alcotest.(check bool) "different constant -> different canon" false
    (equal_query (Canon.canonical_query eq1) (Canon.canonical_query different))

let cint' n = Const (V.Int n)

let simplify () =
  let f = And [ True; And [ Pred (Cmp (Eq, cint' 1, cint' 1)) ]; True ] in
  match Canon.simplify_formula f with
  | Pred _ -> ()
  | _ -> Alcotest.fail "flatten and drop True"

let simplify_double_neg () =
  let p = Pred (Cmp (Eq, Const (V.Int 1), Const (V.Int 1))) in
  Alcotest.(check bool) "double negation" true
    (equal_formula (Canon.simplify_formula (Not (Not p))) p)

(* pattern signatures *)
let pattern_fio_foi () =
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
  let foi =
    coll "Q" [ "A"; "sm" ]
      (exists
         [
           bind "r" "R";
           bind_in "x"
             (collection "X" [ "sm" ]
                (exists ~grouping:group_all [ bind "r2" "R" ]
                   (conj
                      [
                        eq (attr "r2" "A") (attr "r" "A");
                        eq (attr "X" "sm") (sum (attr "r2" "B"));
                      ])));
         ]
         (conj
            [
              eq (attr "Q" "A") (attr "r" "A");
              eq (attr "Q" "sm") (attr "x" "sm");
            ]))
  in
  let p_fio = Pattern.of_query fio and p_foi = Pattern.of_query foi in
  Alcotest.(check bool) "fio classified FIO" true
    (p_fio.Pattern.agg_styles = [ Pattern.FIO ]);
  Alcotest.(check bool) "foi classified FOI" true
    (p_foi.Pattern.agg_styles = [ Pattern.FOI ]);
  Alcotest.(check bool) "fio references R once" true
    (p_fio.Pattern.rel_refs = [ ("R", 1) ]);
  Alcotest.(check bool) "foi references R twice" true
    (p_foi.Pattern.rel_refs = [ ("R", 2) ])

let pattern_counts () =
  let p = Pattern.of_query eq1 in
  Alcotest.(check int) "scopes" 1 p.Pattern.n_scopes;
  Alcotest.(check int) "assignments" 1 p.Pattern.n_assignments;
  Alcotest.(check int) "comparisons" 2 p.Pattern.n_comparisons;
  Alcotest.(check int) "no negation" 0 p.Pattern.n_negations;
  Alcotest.(check bool) "refs" true
    (p.Pattern.rel_refs = [ ("R", 1); ("S", 1) ]);
  (* a nested collection's (a ∧ b) ∧ c counts as its flat twin a ∧ b ∧ c *)
  let a = eq (attr "X" "A") (attr "s" "B") in
  let b = eq (attr "s" "C") (cint 0) in
  let c = eq (attr "s" "B") (attr "r" "B") in
  let with_nested body =
    coll "Q" [ "A" ]
      (exists
         [
           bind "r" "R";
           bind_in "x" (collection "X" [ "A" ] (exists [ bind "s" "S" ] body));
         ]
         (eq (attr "Q" "A") (attr "x" "A")))
  in
  let nested = Pattern.of_query (with_nested (And [ And [ a; b ]; c ])) in
  let flat = Pattern.of_query (with_nested (And [ a; b; c ])) in
  Alcotest.(check string) "nested skeleton" flat.Pattern.skeleton
    nested.Pattern.skeleton;
  Alcotest.(check bool) "nested pattern" true (Pattern.equal nested flat)

(* Pp atoms *)
let pp_atoms () =
  Alcotest.(check string) "term" "r.A" (Pp.term (Attr ("r", "A")));
  Alcotest.(check string) "scalar" "r.B - s.B"
    (Pp.term (Scalar (Sub, [ Attr ("r", "B"); Attr ("s", "B") ])));
  Alcotest.(check string) "agg" "sum(r.B)"
    (Pp.term (Agg (Arc_value.Aggregate.Sum, Attr ("r", "B"))));
  Alcotest.(check string) "pred" "r.B = s.B"
    (Pp.pred (Cmp (Eq, Attr ("r", "B"), Attr ("s", "B"))));
  Alcotest.(check string) "join tree" "left(r, inner(11, s))"
    (Pp.join_tree (J_left (J_var "r", J_inner [ J_lit (V.Int 11); J_var "s" ])));
  Alcotest.(check string) "head" "Q(A, B)"
    (Pp.head { head_name = "Q"; head_attrs = [ "A"; "B" ] })

(* external decls *)
let external_decls () =
  let d = External.arithmetic "Minus" in
  Alcotest.(check int) "4 modes" 4 (List.length d.External.ext_modes);
  Alcotest.(check bool) "find standard" true
    (External.find External.standard "Bigger" <> None);
  Alcotest.(check bool) "product attrs" true
    ((External.product_style "*").External.ext_attrs = [ "$1"; "$2"; "out" ])

(* free variables *)
let free_vars () =
  Alcotest.(check (list string)) "closed query" []
    (Analysis.free_vars_query eq1);
  let open_q =
    coll "Q" [ "A" ]
      (exists [ bind "r" "R" ] (eq (attr "Q" "A") (attr "leak" "A")))
  in
  Alcotest.(check (list string)) "leaking var" [ "leak" ]
    (Analysis.free_vars_query open_q)

(* qcheck: canonicalization is invariant under conjunct shuffling *)
let prop_canon_shuffle =
  QCheck.Test.make ~name:"canon invariant under conjunct permutation"
    ~count:100
    QCheck.(small_list (pair small_int small_int))
    (fun pairs ->
      let base =
        [
          eq (attr "Q" "A") (attr "r" "A");
          eq (attr "r" "B") (attr "s" "B");
          eq (attr "s" "C") (cint 0);
        ]
        @ List.map (fun (a, b) -> neq (cint a) (cint b)) pairs
      in
      let mk body =
        coll "Q" [ "A" ] (exists [ bind "r" "R"; bind "s" "S" ] (conj body))
      in
      let shuffled = List.rev base in
      equal_query
        (Canon.canonical_query (mk base))
        (Canon.canonical_query (mk shuffled)))

let () =
  Alcotest.run "arc_core"
    [
      ( "validation",
        [
          Alcotest.test_case "eq1 valid" `Quick validate_ok;
          Alcotest.test_case "unbound variable" `Quick validate_unbound;
          Alcotest.test_case "unknown attribute" `Quick validate_unknown_attr;
          Alcotest.test_case "unknown relation" `Quick validate_unknown_rel;
          Alcotest.test_case "duplicate binding" `Quick validate_dup_binding;
          Alcotest.test_case "duplicate head attr" `Quick validate_dup_head_attr;
          Alcotest.test_case "reserved relation names" `Quick
            validate_reserved_names;
          Alcotest.test_case "aggregate needs grouping" `Quick
            validate_agg_needs_grouping;
          Alcotest.test_case "nested aggregate" `Quick validate_nested_agg;
          Alcotest.test_case "grouping var scope" `Quick validate_grouping_var;
          Alcotest.test_case "join annotation vars" `Quick validate_join_vars;
          Alcotest.test_case "grouped head dependency" `Quick
            validate_grouped_head_dependency;
          Alcotest.test_case "head hidden in nested" `Quick
            validate_head_in_nested;
          Alcotest.test_case "head visible at depth (eq23)" `Quick
            validate_head_visible_in_own_scopes;
        ] );
      ( "classification",
        [ Alcotest.test_case "roles" `Quick classify ] );
      ( "safety",
        [
          Alcotest.test_case "safe/unsafe/abstract" `Quick safety;
          Alcotest.test_case "external access patterns" `Quick
            safety_externals_resolved;
        ] );
      ( "canonicalization",
        [
          Alcotest.test_case "invariance" `Quick canon_invariance;
          Alcotest.test_case "distinguishes semantics" `Quick canon_distinguishes;
          Alcotest.test_case "simplify" `Quick simplify;
          Alcotest.test_case "double negation" `Quick simplify_double_neg;
        ] );
      ( "patterns",
        [
          Alcotest.test_case "FIO vs FOI" `Quick pattern_fio_foi;
          Alcotest.test_case "counts" `Quick pattern_counts;
        ] );
      ( "atoms",
        [
          Alcotest.test_case "pp" `Quick pp_atoms;
          Alcotest.test_case "external decls" `Quick external_decls;
          Alcotest.test_case "free vars" `Quick free_vars;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_canon_shuffle ] );
    ]
