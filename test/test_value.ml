(* Value substrate tests: values, 3VL, aggregates, conventions. *)

module V = Arc_value.Value
module B3 = Arc_value.Bool3
module Agg = Arc_value.Aggregate
module Conv = Arc_value.Conventions

let i = V.int

let value_compare () =
  Alcotest.(check bool) "null < int" true (V.compare V.Null (i 0) < 0);
  Alcotest.(check bool) "int/float cross" true
    (V.compare (i 1) (V.Float 1.5) < 0);
  Alcotest.(check bool) "1 = 1.0" true (V.equal (i 1) (V.Float 1.));
  Alcotest.(check bool) "null = null (grouping)" true (V.equal V.Null V.Null);
  Alcotest.(check bool) "str order" true (V.compare (V.Str "a") (V.Str "b") < 0);
  Alcotest.(check bool) "2^53 + 1 > 2^53 as a float" true
    (V.compare (i 9007199254740993) (V.Float 9007199254740992.) > 0);
  Alcotest.(check bool) "-(2^53 + 1) < -2^53 as a float" true
    (V.compare (i (-9007199254740993)) (V.Float (-9007199254740992.)) < 0);
  Alcotest.(check bool) "NaN below every int" true
    (V.compare (V.Float Float.nan) (i min_int) < 0)

let value_cmp3 () =
  Alcotest.(check bool) "null vs x is None" true (V.cmp3 V.Null (i 1) = None);
  Alcotest.(check bool) "x vs null is None" true (V.cmp3 (i 1) V.Null = None);
  Alcotest.(check bool) "1 < 2" true (V.cmp3 (i 1) (i 2) = Some (-1));
  Alcotest.check_raises "int vs str raises"
    (V.Type_error "cannot compare int with string") (fun () ->
      ignore (V.cmp3 (i 1) (V.Str "x")))

let value_arith () =
  Alcotest.(check bool) "3 - 1 = 2" true (V.equal (V.sub (i 3) (i 1)) (i 2));
  Alcotest.(check bool) "null strict" true (V.is_null (V.add V.Null (i 1)));
  Alcotest.(check bool) "mixed int/float" true
    (V.equal (V.mul (i 2) (V.Float 1.5)) (V.Float 3.));
  (* SQL semantics: division/modulo by zero yields NULL, never an error,
     never an infinity (which would not round-trip through canonical) *)
  Alcotest.(check bool) "int div by zero is null" true
    (V.is_null (V.div (i 1) (i 0)));
  Alcotest.(check bool) "float div by zero is null" true
    (V.is_null (V.div (V.Float 1.5) (V.Float 0.)));
  Alcotest.(check bool) "mixed div by zero is null" true
    (V.is_null (V.div (i 1) (V.Float 0.)));
  Alcotest.(check bool) "7 mod 3 = 1" true
    (V.equal (V.modulo (i 7) (i 3)) (i 1));
  Alcotest.(check bool) "mod by zero is null" true
    (V.is_null (V.modulo (i 7) (i 0)));
  Alcotest.(check bool) "float mod" true
    (V.equal (V.modulo (V.Float 7.5) (i 2)) (V.Float 1.5));
  Alcotest.(check bool) "mod null strict" true
    (V.is_null (V.modulo V.Null (i 3)))

(* Int/Float values that compare equal must agree on their hash key, or
   the reference evaluator's grouping and the plan engine's hash joins
   would partition the same rows differently. *)
let value_canonical_coercion () =
  Alcotest.(check string)
    "Int 1 and Float 1.0 share a canonical form" (V.canonical (i 1))
    (V.canonical (V.Float 1.0));
  Alcotest.(check bool) "Float 1.5 differs from Int 1" true
    (V.canonical (V.Float 1.5) <> V.canonical (i 1));
  Alcotest.(check bool) "equal values, equal keys" true
    (List.for_all
       (fun (a, b) -> (V.equal a b) = (V.canonical a = V.canonical b))
       [
         (i 0, V.Float 0.);
         (i (-3), V.Float (-3.));
         (i 7, V.Float 7.2);
         (V.Float 2.5, V.Float 2.5);
         (V.Null, i 0);
         (V.Bool true, i 1);
         (V.Str "1", i 1);
       ])

let value_to_string_roundtrip () =
  Alcotest.(check string) "quote doubling" "'it''s'"
    (V.to_string (V.Str "it's"));
  Alcotest.(check string) "plain string" "'abc'" (V.to_string (V.Str "abc"));
  (* float_repr must reparse to the identical float *)
  List.iter
    (fun f ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "float %h reparses" f)
        f
        (float_of_string (V.to_string (V.Float f))))
    [ 0.5; 1.0; -2.25; 1e-7; 1e20; 3.141592653589793; 0.1 ]

let value_like () =
  let t pat s expect =
    Alcotest.(check (option bool))
      (Printf.sprintf "'%s' like '%s'" s pat)
      (Some expect)
      (V.like (V.Str s) pat)
  in
  t "a%" "abc" true;
  t "a%" "bac" false;
  t "%c" "abc" true;
  t "a_c" "abc" true;
  t "a_c" "abbc" false;
  t "%b%" "abc" true;
  t "" "" true;
  t "%" "" true;
  t "_" "" false;
  Alcotest.(check (option bool)) "null like" None (V.like V.Null "a%")

let bool3_tables () =
  let open B3 in
  Alcotest.(check bool) "T and U = U" true (and_ True Unknown = Unknown);
  Alcotest.(check bool) "F and U = F" true (and_ False Unknown = False);
  Alcotest.(check bool) "T or U = T" true (or_ True Unknown = True);
  Alcotest.(check bool) "F or U = U" true (or_ False Unknown = Unknown);
  Alcotest.(check bool) "not U = U" true (not_ Unknown = Unknown);
  Alcotest.(check bool) "to_bool U = false" true (to_bool Unknown = false);
  Alcotest.(check bool) "and_list empty = T" true (and_list [] = True);
  Alcotest.(check bool) "or_list empty = F" true (or_list [] = False)

let agg_basic () =
  let apply k vs = Agg.apply Conv.Agg_null k vs in
  Alcotest.(check bool) "sum" true (V.equal (apply Agg.Sum [ i 1; i 2; i 3 ]) (i 6));
  Alcotest.(check bool) "count" true (V.equal (apply Agg.Count [ i 1; i 2 ]) (i 2));
  Alcotest.(check bool) "count skips nulls" true
    (V.equal (apply Agg.Count [ i 1; V.Null ]) (i 1));
  Alcotest.(check bool) "sum skips nulls" true
    (V.equal (apply Agg.Sum [ i 1; V.Null; i 2 ]) (i 3));
  Alcotest.(check bool) "avg" true
    (V.equal (apply Agg.Avg [ i 1; i 3 ]) (V.Float 2.));
  Alcotest.(check bool) "min" true (V.equal (apply Agg.Min [ i 3; i 1 ]) (i 1));
  Alcotest.(check bool) "max" true (V.equal (apply Agg.Max [ i 3; i 1 ]) (i 3))

let agg_float_sum () =
  let apply k vs = Agg.apply Conv.Agg_null k vs in
  let f = V.float in
  Alcotest.(check bool) "exact cancellation" true
    (V.equal (apply Agg.Sum [ f 1e100; f 1.0; f (-1e100) ]) (f 1.0));
  Alcotest.(check bool) "mixed int/float sum" true
    (V.equal (apply Agg.Sum [ i 1; f 0.5; V.Null ]) (f 1.5));
  Alcotest.(check bool) "int beyond 2^53 summed exactly" true
    (V.equal
       (apply Agg.Sum [ i 9007199254740993; i 1; f 0.0 ])
       (f 9007199254740994.));
  let avg vs =
    match apply Agg.Avg vs with V.Float x -> Int64.bits_of_float x | _ -> 0L
  in
  Alcotest.(check int64) "avg(0.5, 1.0, 1e-7) in any order"
    (avg [ f 0.5; f 1.0; f 1e-7 ])
    (avg [ f 1e-7; f 1.0; f 0.5 ]);
  Alcotest.(check bool) "all-int sums stay ints" true
    (V.equal (apply Agg.Sum [ i 2; i 3 ]) (i 5));
  Alcotest.(check bool) "infinities" true
    (V.equal (apply Agg.Sum [ f Float.infinity; f 1.0 ]) (f Float.infinity))

let agg_distinct () =
  let apply k vs = Agg.apply Conv.Agg_null k vs in
  Alcotest.(check bool) "countdistinct" true
    (V.equal (apply Agg.Count_distinct [ i 1; i 1; i 2 ]) (i 2));
  Alcotest.(check bool) "sumdistinct" true
    (V.equal (apply Agg.Sum_distinct [ i 5; i 5; i 2 ]) (i 7));
  Alcotest.(check bool) "avgdistinct" true
    (V.equal (apply Agg.Avg_distinct [ i 2; i 2; i 4 ]) (V.Float 3.))

let agg_empty_convention () =
  Alcotest.(check bool) "SQL: sum [] = null" true
    (V.is_null (Agg.apply Conv.Agg_null Agg.Sum []));
  Alcotest.(check bool) "Souffle: sum [] = 0" true
    (V.equal (Agg.apply Conv.Agg_zero Agg.Sum []) (i 0));
  Alcotest.(check bool) "count [] = 0 in both" true
    (V.equal (Agg.apply Conv.Agg_null Agg.Count []) (i 0));
  Alcotest.(check bool) "sum of all nulls behaves as empty" true
    (V.is_null (Agg.apply Conv.Agg_null Agg.Sum [ V.Null; V.Null ]))

let agg_names () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Agg.kind_to_string k ^ " round-trips")
        true
        (Agg.kind_of_string (Agg.kind_to_string k) = Some k))
    Agg.all_kinds;
  Alcotest.(check bool) "average alias" true
    (Agg.kind_of_string "average" = Some Agg.Avg);
  Alcotest.(check bool) "unknown" true (Agg.kind_of_string "median" = None)

let conventions () =
  Alcotest.(check bool) "sql is bag" true (Conv.sql.Conv.collection = Conv.Bag);
  Alcotest.(check bool) "sql_set is set" true
    (Conv.sql_set.Conv.collection = Conv.Set);
  Alcotest.(check bool) "souffle 2VL" true
    (Conv.souffle.Conv.null_logic = Conv.Two_valued);
  Alcotest.(check bool) "souffle agg 0" true
    (Conv.souffle.Conv.agg_empty = Conv.Agg_zero)

(* property tests *)
let prop_like_percent =
  QCheck.Test.make ~name:"LIKE '%' matches every string" ~count:200
    QCheck.(string_of_size (Gen.int_bound 20))
    (fun s ->
      (* avoid pattern metacharacters confusion: pattern is just % *)
      V.like (V.Str s) "%" = Some true)

let prop_compare_total =
  let gen =
    QCheck.oneof
      [
        QCheck.always V.Null;
        QCheck.map V.int QCheck.small_int;
        QCheck.map V.float (QCheck.float_bound_exclusive 100.);
        QCheck.map V.str QCheck.(string_of_size (Gen.int_bound 6));
      ]
  in
  QCheck.Test.make ~name:"compare is antisymmetric" ~count:500
    (QCheck.pair gen gen)
    (fun (a, b) -> compare (V.compare a b) 0 = compare 0 (V.compare b a))

(* Values near the edges of [canonical]'s integer form: Int/Float pairs
   at +-2^53 +-1 (where [float_of_int] rounds) and at the +-4e18 bound,
   -0.0, NULL, NaNs, and strings made of the characters canonical forms
   are built from. *)
let key_gen =
  let p53 = 9007199254740992 and b = 4_000_000_000_000_000_000 in
  let ints =
    List.concat_map
      (fun n -> [ n; -n ])
      [ 0; 1; 2; p53 - 1; p53; p53 + 1; b - 1; b; b + 1; max_int ]
  in
  let floats =
    [ -0.0; 1.5; -2.5; 4.0e18; -4.0e18; Float.succ 4.0e18;
      Float.pred (-4.0e18); Float.infinity; Float.nan; -.Float.nan ]
    @ List.map float_of_int ints
  in
  let str =
    QCheck.Gen.(string_size ~gen:(oneofl [ ';'; ':'; 'd'; 's'; '1'; '0'; '-' ])
                  (int_bound 4))
  in
  QCheck.Gen.(
    frequency
      [
        (1, return V.Null);
        (1, map V.bool bool);
        (3, map V.int (oneofl ints));
        (3, map V.float (oneofl floats));
        (2, map V.str str);
      ])

(* Near misses and equal keys must be common, not lucky draws: a value's
   numeric twin (the same number in the other type, which may round) and
   its float negation (0.0 vs -0.0, NaN vs -NaN). *)
let twin = function
  | V.Int n -> V.Float (float_of_int n)
  | V.Float f when Float.is_integer f && Float.abs f <= 4.0e18 ->
      V.Int (int_of_float f)
  | v -> v

let negated = function
  | V.Float f -> V.Float (-.f)
  | V.Int n -> V.Float (-.float_of_int n)
  | v -> v

let key_pair_gen =
  QCheck.Gen.(
    key_gen >>= fun a ->
    frequency
      [
        (1, return (a, a));
        (2, return (a, twin a));
        (1, return (a, negated a));
        (2, map (fun b -> (a, b)) key_gen);
      ])

let print_pair (a, b) = V.to_string a ^ ", " ^ V.to_string b

let prop_key_equal_is_canonical =
  QCheck.Test.make ~name:"key_equal = canonical equality" ~count:2000
    (QCheck.make ~print:print_pair key_pair_gen)
    (fun (a, b) ->
      let eq = V.key_equal a b in
      eq = (V.canonical a = V.canonical b)
      && ((not eq) || V.key_hash a = V.key_hash b))

(* The same at tuple level, over a random attribute order on each side:
   [Tuple.equal] is [Tuple.key] equality, and a [Tuple.Tbl] holding one
   tuple finds the other exactly when they are equal. *)
let prop_tuple_key_equal =
  let module Tuple = Arc_relation.Tuple in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 4) key_pair_gen >>= fun cells ->
      shuffle_l (List.mapi (fun k c -> (k, c)) cells) >>= fun perm ->
      return (cells, perm))
  in
  let print (cells, _) = String.concat "; " (List.map print_pair cells) in
  QCheck.Test.make ~name:"tuple key_equal over attribute orders" ~count:1000
    (QCheck.make ~print gen)
    (fun (cells, perm) ->
      let name k = Printf.sprintf "a%d" k in
      let t1 =
        Tuple.of_alist (List.mapi (fun k (a, _) -> (name k, a)) cells)
      in
      let t2 =
        Tuple.of_alist (List.map (fun (k, (_, b)) -> (name k, b)) perm)
      in
      let tbl = Tuple.Tbl.create 4 in
      Tuple.Tbl.add tbl t1 ();
      let eq = Tuple.equal t1 t2 in
      eq = (Tuple.key t1 = Tuple.key t2)
      && Tuple.Tbl.mem tbl t2 = eq
      && Tuple.Key_tbl.mem
           (let k = Tuple.Key_tbl.create 4 in
            Tuple.Key_tbl.add k (Array.of_list (List.map fst cells)) ();
            k)
           (Array.of_list (List.map snd cells))
         = List.for_all (fun (a, b) -> V.key_equal a b) cells)

(* [compare] is exact across Int and Float, so it agrees with the hash
   keys: a hash join matches exactly the pairs an equality predicate
   accepts. *)
let prop_compare_is_key_equal =
  QCheck.Test.make ~name:"compare a b = 0 iff key_equal a b" ~count:2000
    (QCheck.make ~print:print_pair key_pair_gen)
    (fun (a, b) -> (V.compare a b = 0) = V.key_equal a b)

let prop_compare_antisymmetric_keys =
  QCheck.Test.make ~name:"compare is antisymmetric at the key edges"
    ~count:2000
    (QCheck.make ~print:print_pair key_pair_gen)
    (fun (a, b) -> Int.compare (V.compare a b) 0 = - Int.compare (V.compare b a) 0)

(* Int/Float triples at +-2^53 +-1 and around the 4e18 integer-key bound,
   where rounding an int to a float used to make [compare] intransitive. *)
let edge_num_gen =
  let p53 = 9007199254740992 and b = 4_000_000_000_000_000_000 in
  let ints =
    List.concat_map
      (fun n -> [ n; -n ])
      [ p53 - 1; p53; p53 + 1; p53 + 2; b - 1; b; b + 1; b + 512; b + 1024 ]
  in
  let floats =
    List.concat_map
      (fun f -> [ f; -.f; Float.succ f; Float.pred f ])
      [ 0x1p53; 4.0e18; Float.succ 4.0e18 ]
  in
  QCheck.Gen.(
    oneof [ map V.int (oneofl ints); map V.float (oneofl floats) ])

let prop_compare_transitive =
  let print (a, b, c) =
    String.concat ", " (List.map V.to_string [ a; b; c ])
  in
  QCheck.Test.make ~name:"compare is transitive on Int/Float edges"
    ~count:3000
    (QCheck.make ~print QCheck.Gen.(triple edge_num_gen edge_num_gen edge_num_gen))
    (fun (a, b, c) ->
      let ab = V.compare a b and bc = V.compare b c and ac = V.compare a c in
      (not (ab <= 0 && bc <= 0) || ac <= 0)
      && (not (ab < 0 && bc <= 0) || ac < 0)
      && (not (ab = 0 && bc = 0) || ac = 0))

(* Float SUM and AVG are correctly rounded, so no order of the group's
   rows changes their last bit. *)
let prop_float_agg_order =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 12)
        (oneof
           [
             map V.float (float_bound_exclusive 1.0);
             map V.float (oneofl [ 0.5; 1.0; 1e-7; 1e16; -1e16; 0.1; 3.0 ]);
             map V.int (int_range (-1000) 1000);
           ])
      >>= fun vs ->
      shuffle_l vs >>= fun perm -> return (V.float 0.25 :: vs, V.float 0.25 :: perm))
  in
  let print (vs, _) = String.concat "; " (List.map V.to_string vs) in
  QCheck.Test.make ~name:"float sum/avg do not depend on row order"
    ~count:1000 (QCheck.make ~print gen)
    (fun (vs, perm) ->
      let same k =
        match (Agg.apply Conv.Agg_null k vs, Agg.apply Conv.Agg_null k perm) with
        | V.Float x, V.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
        | _ -> false
      in
      same Agg.Sum && same Agg.Avg)

let prop_bool3_demorgan =
  let gen = QCheck.oneofl [ B3.True; B3.False; B3.Unknown ] in
  QCheck.Test.make ~name:"Kleene De Morgan" ~count:100 (QCheck.pair gen gen)
    (fun (a, b) ->
      B3.not_ (B3.and_ a b) = B3.or_ (B3.not_ a) (B3.not_ b)
      && B3.not_ (B3.or_ a b) = B3.and_ (B3.not_ a) (B3.not_ b))

let prop_sum_append =
  QCheck.Test.make ~name:"sum distributes over append" ~count:200
    QCheck.(pair (small_list small_int) (small_list small_int))
    (fun (xs, ys) ->
      let vs l = List.map V.int l in
      let s l =
        match Agg.apply Conv.Agg_zero Agg.Sum (vs l) with
        | V.Int n -> n
        | _ -> -1
      in
      s (xs @ ys) = s xs + s ys)

let () =
  Alcotest.run "arc_value"
    [
      ( "value",
        [
          Alcotest.test_case "compare" `Quick value_compare;
          Alcotest.test_case "cmp3" `Quick value_cmp3;
          Alcotest.test_case "arithmetic" `Quick value_arith;
          Alcotest.test_case "canonical int/float coercion" `Quick
            value_canonical_coercion;
          Alcotest.test_case "to_string roundtrip" `Quick
            value_to_string_roundtrip;
          Alcotest.test_case "like" `Quick value_like;
        ] );
      ( "bool3",
        [ Alcotest.test_case "kleene tables" `Quick bool3_tables ] );
      ( "aggregate",
        [
          Alcotest.test_case "basic" `Quick agg_basic;
          Alcotest.test_case "distinct variants" `Quick agg_distinct;
          Alcotest.test_case "float sums are correctly rounded" `Quick
            agg_float_sum;
          Alcotest.test_case "empty-input convention" `Quick agg_empty_convention;
          Alcotest.test_case "names" `Quick agg_names;
        ] );
      ( "conventions", [ Alcotest.test_case "presets" `Quick conventions ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_like_percent;
            prop_compare_total;
            prop_bool3_demorgan;
            prop_sum_append;
            prop_key_equal_is_canonical;
            prop_tuple_key_equal;
            prop_compare_is_key_equal;
            prop_compare_antisymmetric_keys;
            prop_compare_transitive;
            prop_float_agg_order;
          ] );
    ]
