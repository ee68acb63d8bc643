(* The benchmark's own checks: its oracles agree with the direct SQL
   evaluator, a seed fixes every input, count metrics repeat exactly, and
   BENCHMARK.json is the spec [main.exe --spec] prints. *)

open Perfbench
module Database = Arc_relation.Database
module Csv = Arc_relation.Csv
module Tuple = Arc_relation.Tuple

let small_shop seed =
  Gen.shop (Random.State.make [| seed |]) ~customers:40 ~orders:300
    ~items:120

(* Every query kind, several constants each, on a 40-customer instance:
   oracle = SQL evaluator = the ARC plan engine path the benchmark times. *)
let oracles_match_sql () =
  let shop = small_shop 3 in
  let db = Gen.shop_db shop in
  let rng = Random.State.make [| 4 |] in
  let queries =
    List.init 12 (Gen.analytics_query rng shop)
    @ List.init 10 (Gen.correlated_query rng)
  in
  List.iter
    (fun q ->
      let text = Gen.sql q in
      let expected = Oracle.expected shop q in
      Alcotest.(check (list string))
        ("Eval_sql: " ^ text) expected
        (Oracle.rows_of_relation (Arc_sql.Eval_sql.run_string ~db text));
      match
        Workload.run_query None ~db ~text ~arc:false
          ~conv:Arc_value.Conventions.sql
      with
      | Workload.Ran_query { rel; _ } ->
          Alcotest.(check (list string))
            ("engine: " ^ text) expected (Oracle.rows_of_relation rel)
      | Workload.Ran_batch _ -> Alcotest.fail "query op ran as a batch")
    queries

let closure_oracle () =
  let db = Gen.chain_db 12 in
  let text = Gen.tc_text (Random.State.make [| 1 |]) in
  match
    Workload.run_query None ~db ~text ~arc:true
      ~conv:Arc_value.Conventions.sql_set
  with
  | Workload.Ran_query { rel; _ } ->
      Alcotest.(check bool)
        "chain 12" true
        (Oracle.check_chain_closure ~n:12 rel);
      Alcotest.(check bool) "wrong length" false
        (Oracle.check_chain_closure ~n:11 rel)
  | Workload.Ran_batch _ -> Alcotest.fail "query op ran as a batch"

(* Data, query texts and batch streams, rendered to bytes. *)
let inputs seed =
  let shop = small_shop seed in
  let db = Gen.shop_db shop in
  let data =
    List.map (fun n -> Csv.write (Database.find db n)) (Database.names db)
  in
  let rng = Random.State.make [| seed; 1 |] in
  let texts =
    List.init 20 (fun i -> Gen.sql (Gen.analytics_query rng shop i))
    @ List.init 10 (fun i -> Gen.sql (Gen.correlated_query rng i))
    @ List.init 3 (fun _ -> Gen.tc_text rng)
  in
  let st = Gen.stream rng shop ~chain:10 in
  let batches =
    List.init 40 (fun i ->
        String.concat ";"
          (List.concat_map
             (fun (rel, rows) ->
               List.map
                 (fun (t, m) ->
                   Printf.sprintf "%s%+d%s" rel m (Tuple.to_string t))
                 rows)
             (Gen.ivm_batch st i)))
  in
  String.concat "\n" (data @ texts @ batches)

let seeds_fix_inputs () =
  Alcotest.(check string) "same seed" (inputs 7) (inputs 7);
  Alcotest.(check bool) "other seed" false (inputs 7 = inputs 8)

(* Counts the later changes may claim against repeat exactly across two
   runs of one seed with the same number of ops. *)
let counts_repeat () =
  let counts workload max_ops =
    let r =
      Workload.run ~max_ops ~workload ~seed:5 ~seconds:60. ~trace:true ()
    in
    Alcotest.(check bool) (workload ^ " correct") true r.Workload.correct;
    List.filter
      (fun (n, _) ->
        List.mem n
          [
            "exec.fixpoint.iterations";
            "exec.fixpoint.delta_rows";
            "exec.hash_join.build_rows";
            "exec.hash_join.probe_rows";
            "exec.hash_join.matches";
            "ivm.out_delta_rows";
            "ivm.state_rows";
          ])
      r.Workload.metrics
  in
  (* one traced cycle of the mix: 4 of its 20 ops are closures *)
  let cycle = Array.length Gen.mix in
  let queries = counts "queries" cycle in
  Alcotest.(check (list (pair string (float 0.))))
    "queries" queries (counts "queries" cycle);
  Alcotest.(check (float 0.)) "256 rounds per closure" 256.
    (List.assoc "exec.fixpoint.iterations" queries
    *. float_of_int cycle
    /. float_of_int
         (Array.fold_left
            (fun n s -> if s = Gen.Closure then n + 1 else n)
            0 Gen.mix));
  Alcotest.(check (list (pair string (float 0.))))
    "ivm" (counts "ivm" 10) (counts "ivm" 10)

let spec_is_committed () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let committed = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "BENCHMARK.json" (Spec.to_json ()) committed

let () =
  Alcotest.run "perfbench"
    [
      ( "oracles",
        [
          Alcotest.test_case "SQL oracles = Eval_sql = engine" `Quick
            oracles_match_sql;
          Alcotest.test_case "chain closure" `Quick closure_oracle;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seed fixes inputs" `Quick seeds_fix_inputs;
          Alcotest.test_case "count metrics repeat" `Quick counts_repeat;
        ] );
      ( "spec",
        [ Alcotest.test_case "BENCHMARK.json" `Quick spec_is_committed ] );
    ]
