(* Statistics and cost-model tests: ANALYZE must be exact (it is a full
   pass), selectivity fractions must obey their algebra, and the cost
   model's estimates must be better with statistics than without on the
   catalog suite (lower median Q-error). Statistics are advisory: results
   never change, only plans. *)

open Arc_core.Ast
module V = Arc_value.Value
module Relation = Arc_relation.Relation
module Tuple = Arc_relation.Tuple
module Schema = Arc_relation.Schema
module Stats = Arc_relation.Stats
module Database = Arc_relation.Database
module Eval = Arc_engine.Eval
module Exec = Arc_engine.Exec
module Ir = Arc_plan.Ir
module Explain = Arc_plan.Explain
module Data = Arc_catalog.Data

(* every catalog database with data in it *)
let dbs =
  [
    ("db_rs", Data.db_rs);
    ("db_grouping", Data.db_grouping);
    ("db_payroll", Data.db_payroll);
    ("db_parent", Data.db_parent);
    ("db_nulls", Data.db_nulls);
    ("db_beers", Data.db_beers);
    ("db_matrices", Data.db_matrices);
    ("db_countbug", Data.db_countbug);
  ]

let each_column f =
  List.iter
    (fun (dbname, db) ->
      List.iter
        (fun rname ->
          let r = Database.find db rname in
          let s = Stats.collect r in
          List.iter
            (fun attr ->
              let c =
                match Stats.col s attr with
                | Some c -> c
                | None ->
                    Alcotest.failf "%s.%s: no stats for column %s" dbname
                      rname attr
              in
              f (Printf.sprintf "%s.%s.%s" dbname rname attr) r s c attr)
            (Schema.attrs (Relation.schema r)))
        (Database.names db))
    dbs

let column_values r attr =
  List.map (fun tp -> Tuple.get tp attr) (Relation.tuples r)

let count p xs = List.length (List.filter p xs)

(* collection is a full pass: row counts, null counts, distinct counts,
   MCV frequencies and histogram bucket sums are all exact *)
let collect_exact () =
  each_column (fun label r s c attr ->
      Alcotest.(check int)
        (label ^ ": s_rows")
        (Relation.cardinality r) s.Stats.s_rows;
      let vs = column_values r attr in
      let nulls = count V.is_null vs in
      let non_null = List.filter (fun v -> not (V.is_null v)) vs in
      let distinct = List.sort_uniq V.compare non_null in
      Alcotest.(check int) (label ^ ": c_nulls") nulls c.Stats.c_nulls;
      Alcotest.(check int)
        (label ^ ": c_distinct")
        (List.length distinct) c.Stats.c_distinct;
      (* MCV entries are exact occurrence counts, and only for repeats *)
      List.iter
        (fun (v, n) ->
          if n < 2 then
            Alcotest.failf "%s: MCV %s occurs only %d time" label
              (V.canonical v) n;
          Alcotest.(check int)
            (label ^ ": MCV count of " ^ V.canonical v)
            (count (fun v' -> V.compare v v' = 0) non_null)
            n)
        c.Stats.c_mcvs;
      (* equi-depth histogram partitions the non-null rows *)
      let brows =
        List.fold_left (fun a b -> a + b.Stats.b_rows) 0 c.Stats.c_hist
      in
      let bdistinct =
        List.fold_left (fun a b -> a + b.Stats.b_distinct) 0 c.Stats.c_hist
      in
      Alcotest.(check int)
        (label ^ ": histogram rows = non-null rows")
        (List.length non_null) brows;
      Alcotest.(check int)
        (label ^ ": histogram distinct = distinct")
        (List.length distinct) bdistinct;
      (* buckets ascend and min/max bracket the data *)
      let rec ascending = function
        | a :: (b :: _ as rest) ->
            V.compare a.Stats.b_hi b.Stats.b_hi < 0 && ascending rest
        | _ -> true
      in
      if not (ascending c.Stats.c_hist) then
        Alcotest.failf "%s: histogram bounds not ascending" label;
      match (c.Stats.c_min, c.Stats.c_max, distinct) with
      | Some lo, Some hi, _ :: _ ->
          Alcotest.(check int)
            (label ^ ": c_min")
            0
            (V.compare lo (List.hd distinct));
          Alcotest.(check int)
            (label ^ ": c_max")
            0
            (V.compare hi (List.nth distinct (List.length distinct - 1)))
      | None, None, [] -> ()
      | _ -> Alcotest.failf "%s: min/max disagree with data" label)

(* ------------------------------------------------------------------ *)
(* The reference collector                                             *)
(* ------------------------------------------------------------------ *)

(* The specification [Stats.collect] must meet: the plain list-sort
   collector it replaced. Stably sort a column's non-null values, cut the
   sorted list into runs of equal values, and read everything off the
   runs. A run is represented by its first element, which the stable sort
   makes the value's first occurrence in row order — for [c_max] too. *)
module Reference = struct
  open Stats

  let runs_of sorted =
    let rec go acc = function
      | [] -> List.rev acc
      | v :: rest -> (
          match acc with
          | (v0, n) :: tl when V.compare v0 v = 0 ->
              go ((v0, n + 1) :: tl) rest
          | _ -> go ((v, 1) :: acc) rest)
    in
    go [] sorted

  let mcvs_of runs =
    let indexed = List.mapi (fun i (v, n) -> (i, v, n)) runs in
    let frequent = List.filter (fun (_, _, n) -> n > 1) indexed in
    let top =
      List.sort
        (fun (i1, _, n1) (i2, _, n2) -> compare (-n1, i1) (-n2, i2))
        frequent
    in
    let rec take k = function
      | (_, v, n) :: rest when k > 0 -> (v, n) :: take (k - 1) rest
      | _ -> []
    in
    take mcv_target top

  let histogram_of runs nonnull =
    if runs = [] then []
    else begin
      let depth =
        max 1 ((nonnull + histogram_buckets - 1) / histogram_buckets)
      in
      let buckets = ref [] in
      let cur_rows = ref 0 and cur_distinct = ref 0 and cur_hi = ref None in
      let flush () =
        match !cur_hi with
        | None -> ()
        | Some hi ->
            buckets :=
              { b_hi = hi; b_rows = !cur_rows; b_distinct = !cur_distinct }
              :: !buckets;
            cur_rows := 0;
            cur_distinct := 0;
            cur_hi := None
      in
      List.iter
        (fun (v, n) ->
          cur_rows := !cur_rows + n;
          incr cur_distinct;
          cur_hi := Some v;
          if !cur_rows >= depth then flush ())
        runs;
      flush ();
      List.rev !buckets
    end

  let collect_column rows attr =
    let values = List.map (fun tp -> Tuple.get tp attr) rows in
    let nulls, nonnull = List.partition V.is_null values in
    let sorted = List.stable_sort V.compare nonnull in
    let runs = runs_of sorted in
    {
      c_nulls = List.length nulls;
      c_distinct = List.length runs;
      c_min = (match runs with [] -> None | (v, _) :: _ -> Some v);
      c_max = (match List.rev runs with [] -> None | (v, _) :: _ -> Some v);
      c_mcvs = mcvs_of runs;
      c_hist = histogram_of runs (List.length sorted);
    }

  let collect (r : Relation.t) : t =
    let rows = Relation.tuples r in
    {
      s_rows = Relation.cardinality r;
      s_analyzed_rows = Relation.cardinality r;
      s_cols =
        List.map
          (fun a -> (a, collect_column rows a))
          (Schema.attrs (Relation.schema r));
      s_stale = false;
    }
end

let matches_reference label r =
  let got = Stats.collect r and want = Reference.collect r in
  if got <> want then
    Alcotest.failf "%s: collect differs from the reference\ngot:\n%swant:\n%s"
      label (Stats.to_string got) (Stats.to_string want)

let each_relation label db =
  List.iter
    (fun n -> matches_reference (label ^ "." ^ n) (Database.find db n))
    (Database.names db)

let reference_catalog () =
  List.iter (fun (name, db) -> each_relation name db) dbs

(* Random columns for the property. All-[Int] columns take the radix path:
   narrow ranges (many repeats, MCV ties), wide ranges (several radix
   digits, negatives), and columns holding both [min_int] and [max_int],
   whose range overflows and falls back to a comparison sort. Mixed
   columns take the hash path and pair equal [Int]/[Float] values. They
   stay within |x| <= 2^53: beyond that [V.compare] is not transitive
   across [Int]/[Float] ([Int (2^53 + 1)] and [Int (2^53)] both equal
   [Float 2^53]), so no order of the values is consistent. *)
let gen_column n =
  let open QCheck.Gen in
  let with_nulls g = frequency [ (1, return V.Null); (6, g) ] in
  let int_in lo hi = map (fun x -> V.Int x) (int_range lo hi) in
  let big = 1 lsl 53 in
  let kind =
    oneof
      [
        return (with_nulls (int_in (-8) 8));
        return (with_nulls (int_in (-(1 lsl 40)) (1 lsl 40)));
        return
          (with_nulls
             (frequency
                [
                  (1, return (V.Int min_int));
                  (1, return (V.Int max_int));
                  (4, map (fun x -> V.Int x) int);
                ]));
        map (fun k -> return (V.Int k)) small_signed_int;
        return (return V.Null);
        return
          (with_nulls
             (frequency
                [
                  (1, map (fun b -> V.Bool b) bool);
                  (3, int_in (-3) 3);
                  ( 3,
                    map
                      (fun k -> V.Float (float_of_int k /. 2.0))
                      (int_range (-6) 6) );
                  (2, map (fun s -> V.Str s) (oneofl [ ""; "a"; "b"; "ab" ]));
                  ( 1,
                    oneofl
                      [ V.Int big; V.Int (-big); V.Float (float_of_int big) ]
                  );
                ]));
      ]
  in
  kind >>= fun g -> list_repeat n g

(* two independent columns, so one relation exercises the sort buffers
   [collect] shares between its columns *)
let gen_relation =
  QCheck.Gen.(
    let* n = frequency [ (1, return 0); (6, int_bound 300) ] in
    let* a = gen_column n in
    let* b = gen_column n in
    return (Relation.of_rows [ "a"; "b" ] (List.map2 (fun x y -> [ x; y ]) a b)))

let prop_reference =
  QCheck.Test.make ~name:"collect = reference on random columns" ~count:500
    (QCheck.make
       ~print:(fun r -> Relation.to_table r)
       gen_relation)
    (fun r -> Stats.collect r = Reference.collect r)

(* c_max is the first occurrence of the largest value, like c_min, the
   MCVs and the bucket bounds *)
let first_occurrence () =
  let col vs =
    let r = Relation.of_rows [ "x" ] (List.map (fun v -> [ v ]) vs) in
    Option.get (Stats.col (Stats.collect r) "x")
  in
  let show = Option.map V.to_string in
  let c = col [ V.Int 1; V.Int 4; V.Float 4.0 ] in
  Alcotest.(check (option string)) "c_max" (Some "4") (show c.Stats.c_max);
  Alcotest.(check (list string))
    "mcvs" [ "4" ]
    (List.map (fun (v, _) -> V.to_string v) c.Stats.c_mcvs);
  let c = col [ V.Float 4.0; V.Int 1; V.Int 4; V.Float 1.0 ] in
  Alcotest.(check (option string)) "c_min" (Some "1") (show c.Stats.c_min);
  Alcotest.(check (option string)) "c_max" (Some "4.0") (show c.Stats.c_max);
  Alcotest.(check (list string))
    "bucket bounds" [ "1"; "4.0" ]
    (List.map (fun b -> V.to_string b.Stats.b_hi) c.Stats.c_hist)

let unknown_only () =
  Alcotest.check_raises "unknown --only name"
    (Database.Unknown_relation "Nope") (fun () ->
      ignore (Database.analyze ~only:[ "R"; "Nope" ] Data.db_rs))

(* the selectivity algebra: fractions live in [0,1]; eq_fraction sums to
   the non-null fraction over the distinct values; le_fraction is monotone
   and exact at the maximum *)
let selectivity_algebra () =
  each_column (fun label r s c attr ->
      if Relation.cardinality r = 0 then ()
      else begin
        let vs = column_values r attr in
        let non_null = List.filter (fun v -> not (V.is_null v)) vs in
        let distinct = List.sort_uniq V.compare non_null in
        let rows = float_of_int s.Stats.s_rows in
        let in_unit what f =
          if not (f >= 0.0 && f <= 1.0) then
            Alcotest.failf "%s: %s = %f outside [0,1]" label what f
        in
        in_unit "null_fraction" (Stats.null_fraction s c);
        in_unit "eq_unknown_fraction" (Stats.eq_unknown_fraction s c);
        let total =
          List.fold_left
            (fun a v ->
              let f = Stats.eq_fraction s c v in
              in_unit ("eq_fraction " ^ V.canonical v) f;
              a +. f)
            0.0 distinct
        in
        let expect = float_of_int (List.length non_null) /. rows in
        if abs_float (total -. expect) > 1e-9 then
          Alcotest.failf "%s: eq_fractions sum %f <> non-null fraction %f"
            label total expect;
        (* off-range probes are zero *)
        (match distinct with
        | [] -> ()
        | _ ->
            let le =
              List.filter_map (fun v -> Stats.le_fraction s c v) distinct
            in
            let rec monotone = function
              | a :: (b :: _ as rest) ->
                  a <= b +. 1e-9 && monotone rest
              | _ -> true
            in
            List.iter (in_unit "le_fraction") le;
            if not (monotone le) then
              Alcotest.failf "%s: le_fraction not monotone" label;
            match List.rev le with
            | last :: _ ->
                if abs_float (last -. expect) > 1e-9 then
                  Alcotest.failf
                    "%s: le_fraction at max %f <> non-null fraction %f"
                    label last expect
            | [] -> ())
      end)

(* patch_rows updates the row count and marks the details stale; replacing
   a relation drops its (now unverifiable) statistics *)
let staleness () =
  let r = Database.find Data.db_rs "R" in
  let s = Stats.collect r in
  Alcotest.(check bool) "fresh stats not stale" false s.Stats.s_stale;
  let s' = Stats.patch_rows s (s.Stats.s_rows + 5) in
  Alcotest.(check bool) "patched stats stale" true s'.Stats.s_stale;
  Alcotest.(check int) "patched rows" (s.Stats.s_rows + 5) s'.Stats.s_rows;
  let db = Database.analyze Data.db_rs in
  Alcotest.(check bool)
    "analyze -> analyzed" true
    (Database.stats_bindings db <> []);
  let db' = Database.add db "R" r in
  Alcotest.(check bool)
    "add drops stats" true
    (Database.stats db' "R" = None);
  Alcotest.(check bool)
    "other stats survive" true
    (Database.stats db' "S" <> None)

let db_xy =
  Database.of_list
    [
      ("X", Relation.of_rows [ "A" ] [ [ V.Int 1 ]; [ V.Int 5 ] ]);
      ("Y", Relation.of_rows [ "A" ] [ [ V.Int 2 ]; [ V.Int 6 ] ]);
    ]

(* catalog join/aggregation workloads used for the estimator comparisons *)
let q_workloads =
  [
    ("eq1", Data.db_rs, { defs = []; main = Coll Data.eq1 });
    ("eq2", db_xy, { defs = []; main = Coll Data.eq2 });
    ("eq3", Data.db_grouping, { defs = []; main = Coll Data.eq3 });
    ("eq7", Data.db_grouping, { defs = []; main = Coll Data.eq7 });
    ("eq8", Data.db_payroll, { defs = []; main = Coll Data.eq8 });
    ("eq10", Data.db_payroll, { defs = []; main = Coll Data.eq10 });
    ("eq12", Data.db_payroll, { defs = []; main = Coll Data.eq12 });
    ("eq22", Data.db_beers, { defs = []; main = Coll Data.eq22 });
    ("eq26", Data.db_matrices, { defs = []; main = Coll Data.eq26 });
  ]

(* statistics are advisory: running with and without ANALYZE must return
   the same bags *)
let modes_agree () =
  List.iter
    (fun (name, db, prog) ->
      let base = Exec.run_rows ~db prog in
      let stats = Exec.run_rows ~db:(Database.analyze db) prog in
      if not (Relation.equal_bag base stats) then
        Alcotest.failf "%s: ANALYZE changed the result bag" name)
    (("eq16", Data.db_parent,
      { defs = Data.eq16_defs; main = Coll Data.eq16_main })
    :: q_workloads)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s -> List.nth s (List.length s / 2)

(* the Q-error regression statistics exist for: run each catalog workload
   once under its ANALYZEd database, then score the same plan and the same
   actuals with the cost model given the statistics and given none. The
   stats-driven estimates must have strictly lower median (and mean)
   Q-error than the heuristic guesses. *)
let q_error_collect () =
  let q_stats = ref [] and q_heur = ref [] in
  List.iter
    (fun (_name, db, prog) ->
      let adb = Database.analyze db in
      let ctx, _raw, optimized, _report = Exec.compile ~db:adb prog in
      let stats = Ir.fresh_stats () in
      ignore (Exec.exec_program ~stats ctx optimized);
      let cenv = Database.stats_bindings adb in
      let take sink infos =
        List.iter
          (fun ni ->
            match ni.Explain.ni_q with
            | Some q -> sink := q :: !sink
            | None -> ())
          infos
      in
      take q_stats (Explain.analyze_info ~cenv optimized ~stats);
      take q_heur (Explain.analyze_info optimized ~stats))
    q_workloads;
  (!q_stats, !q_heur)

let stats_beat_heuristic () =
  let q_stats, q_heur = q_error_collect () in
  Alcotest.(check int)
    "same node population"
    (List.length q_heur) (List.length q_stats);
  let mean xs =
    List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  let ms = median q_stats and mh = median q_heur in
  if not (ms < mh) then
    Alcotest.failf
      "median q-error: stats %.3f not below heuristic %.3f" ms mh;
  let mns = mean q_stats and mnh = mean q_heur in
  if not (mns < mnh) then
    Alcotest.failf
      "mean q-error: stats %.3f not below heuristic %.3f (medians %.3f vs \
       %.3f)"
      mns mnh ms mh

(* ------------------------------------------------------------------ *)
(* The ANALYZE memo                                                    *)
(* ------------------------------------------------------------------ *)

(* the same rows in a buffer of their own, which no memo has seen *)
let fresh_copy r =
  Relation.of_rows
    (Schema.attrs (Relation.schema r))
    (List.map Tuple.values (Relation.tuples r))

(* every entry an ANALYZEd database serves equals a cold collect *)
let served_fresh label db =
  List.iter
    (fun n ->
      let want = Stats.collect (fresh_copy (Database.find db n)) in
      match Database.stats db n with
      | None -> Alcotest.failf "%s.%s: no statistics after analyze" label n
      | Some got when got <> want ->
          Alcotest.failf "%s.%s: served stats differ\ngot:\n%swant:\n%s" label
            n (Stats.to_string got) (Stats.to_string want)
      | Some _ -> ())
    (Database.names db)

(* a second ANALYZE serves the very values of the first, and both are a
   cold collect *)
let memo_serves label db =
  let first = Database.analyze db in
  let second = Database.analyze db in
  served_fresh label first;
  served_fresh label second;
  List.iter
    (fun n ->
      if Option.get (Database.stats first n)
         != Option.get (Database.stats second n)
      then Alcotest.failf "%s.%s: the second analyze collected again" label n)
    (Database.names db)

let memo_catalog () = List.iter (fun (name, db) -> memo_serves name db) dbs

(* the 500 fixed-seed fuzz databases: [collect] equals the reference, and
   a memoized ANALYZE serves it *)
let reference_fuzz () =
  for seed = 0 to 499 do
    let c = Arc_fuzz.Gen.gen_case (Random.State.make [| seed |]) in
    let label = Printf.sprintf "fuzz seed %d" seed in
    each_relation label c.Arc_fuzz.Case.db;
    memo_serves label c.Arc_fuzz.Case.db
  done

(* How a relation changes between two ANALYZEs. *)
type change =
  | Add
  | Union
  | Select of int
  | Take of int
  | Dedup
  | Minus
  | Apply_delta of int
  | Replace

let show_change = function
  | Add -> "add"
  | Union -> "union"
  | Select k -> Printf.sprintf "select %d" k
  | Take k -> Printf.sprintf "take %d" k
  | Dedup -> "dedup"
  | Minus -> "minus"
  | Apply_delta k -> Printf.sprintf "apply_delta %d" k
  | Replace -> "replace"

let apply_change other r = function
  | Add ->
      List.fold_left
        (fun r tp -> Relation.add r (Relation.align_to (Relation.schema r) tp))
        r (Relation.tuples other)
  | Union -> Relation.union r other
  | Select k ->
      let i = ref 0 in
      Relation.select
        (fun _ ->
          incr i;
          !i mod (k + 2) <> 0)
        r
  | Take k -> Relation.take k r
  | Dedup -> Relation.dedup r
  | Minus -> Relation.minus r other
  | Apply_delta k ->
      let dels =
        List.filteri (fun i _ -> i < k) (Relation.tuples r)
        |> List.map (fun tp -> (tp, -1))
      in
      Relation.apply_delta r
        (dels @ List.map (fun tp -> (tp, 1)) (Relation.tuples other))
  | Replace -> fresh_copy other

(* a base relation, a second relation over the same names in another
   order (the operand of [union], [minus], the inserted rows), and a
   sequence of changes; no NaN, so [=] on statistics is equality *)
let gen_memo_case =
  let open QCheck.Gen in
  let value =
    frequency
      [
        (4, map V.int (int_range (-4) 4));
        (1, return V.Null);
        (1, map (fun k -> V.Float (float_of_int k /. 2.0)) (int_range (-4) 4));
        (1, map V.str (oneofl [ ""; "a"; "b" ]));
      ]
  in
  let rows = list_size (int_bound 40) (list_repeat 2 value) in
  let change =
    let k = int_bound 8 in
    oneof
      [
        return Add; return Union; map (fun k -> Select k) k;
        map (fun k -> Take k) k; return Dedup; return Minus;
        map (fun k -> Apply_delta k) k; return Replace;
      ]
  in
  quad rows rows (list_size (int_range 1 4) change) bool

(* After every change, the database holding the changed relation (via
   [Database.add]) and the original database are ANALYZEd again; both
   must serve a cold collect of their own relation. The memo they share
   sees the two alternate under one name. *)
let prop_memo_never_stale =
  QCheck.Test.make ~name:"a changed relation is never served stale stats"
    ~count:300
    (QCheck.make
       ~print:(fun (a, b, cs, _) ->
         Printf.sprintf "%d rows, %d other rows, changes: %s" (List.length a)
           (List.length b)
           (String.concat ", " (List.map show_change cs)))
       gen_memo_case)
    (fun (rows, other_rows, changes, keep_other) ->
      let r = Relation.of_rows [ "a"; "b" ] rows in
      let other = Relation.of_rows [ "b"; "a" ] other_rows in
      let db0 =
        Database.of_list
          ((if keep_other then [ ("S", other) ] else []) @ [ ("R", r) ])
      in
      let db = ref (Database.analyze db0) and cur = ref r in
      List.iter
        (fun c ->
          cur := apply_change other !cur c;
          db := Database.analyze (Database.add !db "R" !cur);
          served_fresh ("after " ^ show_change c) !db;
          served_fresh "the original" (Database.analyze db0))
        changes;
      true)

(* IVM patches the row count of a maintained relation and marks its
   statistics stale; the next ANALYZE collects the new relation afresh. *)
let memo_after_ivm () =
  let db =
    Database.of_list
      [
        ( "O",
          Relation.of_rows [ "k"; "v" ]
            [ [ V.Int 1; V.Int 10 ]; [ V.Int 2; V.Int 20 ]; [ V.Int 3; V.Int 20 ] ]
        );
      ]
  in
  let ivm = Arc_ivm.Ivm.create ~db:(Database.analyze db) () in
  Arc_ivm.Ivm.register ivm ~name:"T"
    (Arc_syntax.Parser.program_of_string "{T(v) | exists o in O[T.v = o.v]}");
  let o k v =
    Tuple.make (Relation.schema (Database.find db "O")) [| V.Int k; V.Int v |]
  in
  ignore
    (Arc_ivm.Ivm.apply ivm [ ("O", [ (o 4 30, 1); (o 5 30, 1); (o 1 10, -1) ]) ]);
  let patched = Option.get (Database.stats (Arc_ivm.Ivm.db ivm) "O") in
  Alcotest.(check bool) "patched by the batch" true patched.Stats.s_stale;
  Alcotest.(check int) "patched row count" 4 patched.Stats.s_rows;
  let adb = Database.analyze (Arc_ivm.Ivm.db ivm) in
  let s = Option.get (Database.stats adb "O") in
  Alcotest.(check bool) "fresh after analyze" false s.Stats.s_stale;
  served_fresh "after the batch" adb

(* The memo makes a steady-state ANALYZE free, so the CI gate on
   perfbench's analyze words no longer measures the collector; this one
   does. A fresh relation is never in a memo: 60,000 rows shaped like
   the benchmark's orders and items (unique and repeating ints, a
   nullable int, a string column), one cold [Stats.collect]. *)
let cold_collect_words () =
  let n = 60_000 in
  let r =
    Relation.of_rows
      [ "oid"; "cid"; "total"; "sku"; "qty" ]
      (List.init n (fun i ->
           [
             V.Int i;
             V.Int (i * 7919 mod 4000);
             V.Int (1 + (i * 31 mod 1000));
             V.Str (Printf.sprintf "sku%d" (i mod 200));
             (if i mod 10 = 0 then V.Null else V.Int (1 + (i mod 10)));
           ]))
  in
  let w0 = Gc.minor_words () in
  let s = Stats.collect r in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "rows" n s.Stats.s_rows;
  let per_row = words /. float_of_int n in
  if per_row > 16.0 then
    Alcotest.failf "cold collect allocates %.2f words/row (> 16)" per_row

let () =
  Alcotest.run "arc_stats"
    [
      ( "collect",
        [
          Alcotest.test_case "full-pass statistics are exact" `Quick
            collect_exact;
          Alcotest.test_case "selectivity fractions obey their algebra"
            `Quick selectivity_algebra;
          Alcotest.test_case "patch_rows staleness and add invalidation"
            `Quick staleness;
          Alcotest.test_case "c_max is the first occurrence" `Quick
            first_occurrence;
          Alcotest.test_case "analyze rejects an unknown relation" `Quick
            unknown_only;
        ] );
      ( "reference",
        [
          Alcotest.test_case "catalog databases" `Quick reference_catalog;
          Alcotest.test_case "fixed-seed fuzz databases" `Quick
            reference_fuzz;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 12 |])
            prop_reference;
        ] );
      ( "memo",
        [
          Alcotest.test_case "catalog databases" `Quick memo_catalog;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 28 |])
            prop_memo_never_stale;
          Alcotest.test_case "an IVM batch, then analyze" `Quick
            memo_after_ivm;
          Alcotest.test_case "cold collect allocates at most 16 words/row"
            `Quick cold_collect_words;
        ] );
      ( "cost model",
        [
          Alcotest.test_case
            "stats and batching never change result bags" `Quick
            modes_agree;
          Alcotest.test_case "stats-driven beats heuristic q-error" `Quick
            stats_beat_heuristic;
        ] );
    ]
