(* Resource-governance tests: budgets stop runaway evaluations with typed
   errors, graceful degradation returns partial-but-consistent results,
   cancellation always wins, faults injected into externals are absorbed by
   retry or surface as typed failures, and the typed error constructors
   render exactly the seed engine's message strings. *)

open Arc_core.Ast
open Arc_core.Build
module V = Arc_value.Value
module Relation = Arc_relation.Relation
module Database = Arc_relation.Database
module Eval = Arc_engine.Eval
module Externals = Arc_engine.Externals
module Chaos = Arc_engine.Chaos
module Budget = Arc_guard.Budget
module Gov = Arc_guard.Gov
module Cancel = Arc_guard.Cancel
module Err = Arc_guard.Error

let i = V.int

let db_rs =
  Database.of_list
    [
      ( "R",
        Relation.of_rows [ "A"; "B" ]
          [ [ i 1; i 10 ]; [ i 2; i 20 ]; [ i 3; i 30 ] ] );
      ( "S",
        Relation.of_rows [ "B"; "C" ]
          [ [ i 10; i 0 ]; [ i 20; i 5 ]; [ i 99; i 0 ] ] );
    ]

(* a divergent recursive program: N counts up from 0 through the "Add"
   external, so its least fixpoint is infinite. Classified Safe by the
   analysis, making it exactly the case budgets exist for. *)
let divergent =
  Arc_syntax.Parser.program_of_string
    "def N := {N(x) | exists s in S[N.x = s.v] or exists n in N, f in \
     \"Add\"[f.left = n.x and f.right = 1 and N.x = f.out]} {Q(x) | exists \
     n in N[Q.x = n.x]}"

let db_seed = Database.of_list [ ("S", Relation.of_rows [ "v" ] [ [ i 0 ] ]) ]

(* transitive closure over a random edge set, the monotone workhorse for the
   truncation-subset property *)
let tc_prog =
  Arc_syntax.Parser.program_of_string
    "def T := {T(s,t) | exists e in E[T.s = e.s and T.t = e.t] or exists a \
     in T, b in E[a.t = b.s and T.s = a.s and T.t = b.t]} {Q(s,t) | exists \
     x in T[Q.s = x.s and Q.t = x.t]}"

let edges_db seed n =
  let rng = Random.State.make [| seed |] in
  let rows =
    List.init n (fun _ ->
        [ V.Int (Random.State.int rng 12); V.Int (Random.State.int rng 12) ])
  in
  Database.of_list [ ("E", Relation.of_rows [ "s"; "t" ] rows) ]

let expect_budget_error ~resource name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Budget_exceeded" name
  | exception Eval.Eval_error e -> (
      match e.Err.kind with
      | Err.Budget_exceeded b when b.Err.resource = resource -> ()
      | _ ->
          Alcotest.failf "%s: expected Budget_exceeded (%s), got: %s" name
            (Budget.resource_to_string resource)
            (Err.to_string e))

(* (a) a divergent fixpoint is stopped by the iteration budget on both
   engines, with a typed error naming the resource *)
let iteration_budget () =
  List.iter
    (fun run ->
      expect_budget_error ~resource:Budget.Fixpoint_iterations "divergent"
        (fun () ->
          let guard =
            Gov.make { Budget.unlimited with Budget.max_iterations = Some 20 }
          in
          run ~guard ~db:db_seed divergent))
    [
      (fun ~guard ~db p -> Eval.run ~guard ~db p);
      (fun ~guard ~db p -> Arc_engine.Exec.run ~guard ~db p);
    ];
  (* truncate mode instead returns the partial fixpoint: counting up with a
     cap of k iterations yields at least k distinct values of N *)
  let guard =
    Gov.make ~on_limit:`Truncate
      { Budget.unlimited with Budget.max_iterations = Some 10 }
  in
  let r = Eval.run_rows ~guard ~db:db_seed divergent in
  let report = Gov.report guard in
  if not report.Gov.truncated then Alcotest.fail "report not marked truncated";
  if Relation.cardinality r < 10 then
    Alcotest.failf "partial fixpoint too small: %d rows"
      (Relation.cardinality r);
  (match report.Gov.events with
  | [ e ] when e.Gov.resource = Budget.Fixpoint_iterations -> ()
  | _ -> Alcotest.fail "expected a single fixpoint-iterations event");
  (* the default guard still reproduces the seed behavior: 100k rounds then
     failure (exercised with a tighter explicit budget above; here we only
     check the default budget carries the seed cap) *)
  Alcotest.(check (option int))
    "default cap" (Some 100_000)
    Budget.(default.max_iterations)

(* (b) a wall-clock deadline interrupts evaluation mid-scope; with a fake
   clock the trip point is deterministic *)
let deadline () =
  let now = ref 0L in
  let clock () =
    (* every probe advances the fake clock 1ms; deadline 5ms trips on the
       6th probe, long before the (divergent) evaluation could finish *)
    now := Int64.add !now 1_000_000L;
    !now
  in
  (match
     let guard =
       Gov.make ~clock (Budget.with_timeout_ms 5 Budget.unlimited)
     in
     Eval.run ~guard ~db:db_seed divergent
   with
  | _ -> Alcotest.fail "expected deadline trip"
  | exception Eval.Eval_error e -> (
      match e.Err.kind with
      | Err.Budget_exceeded { resource = Budget.Wall_clock; limit = 5; _ } ->
          ()
      | _ -> Alcotest.failf "wrong error: %s" (Err.to_string e)));
  (* truncate mode: evaluation completes with whatever was derived *)
  let now = ref 0L in
  let clock () =
    now := Int64.add !now 100_000L;
    !now
  in
  let guard =
    Gov.make ~clock ~on_limit:`Truncate
      (Budget.with_timeout_ms 2 Budget.unlimited)
  in
  let r = Eval.run_rows ~guard ~db:db_seed divergent in
  let report = Gov.report guard in
  if not report.Gov.truncated then Alcotest.fail "report not marked truncated";
  ignore (Relation.cardinality r)

(* (c) truncation-subset property: for a monotone program (transitive
   closure), every truncated result is a subset of the full result *)
let truncation_subset () =
  List.iter
    (fun seed ->
      let db = edges_db seed 18 in
      let full = Eval.run_rows ~db tc_prog in
      List.iter
        (fun max_rows ->
          let guard =
            Gov.make ~on_limit:`Truncate
              { Budget.unlimited with Budget.max_rows = Some max_rows }
          in
          let truncated = Eval.run_rows ~guard ~db tc_prog in
          let extra = Relation.minus truncated full in
          if not (Relation.is_empty extra) then
            Alcotest.failf
              "seed %d, max_rows %d: truncated result is not a subset;\n%s"
              seed max_rows
              (Relation.to_table extra);
          if Relation.cardinality truncated > Relation.cardinality full then
            Alcotest.fail "truncated result larger than full result")
        [ 1; 5; 20; 100 ])
    [ 1; 2; 3; 4; 5 ]

(* (d) binding and depth budgets trip with typed errors too *)
let other_budgets () =
  let q =
    program
      (coll "Q" [ "A" ]
         (exists [ bind "r" "R"; bind "s" "S" ] (eq (attr "Q" "A") (attr "r" "A"))))
  in
  expect_budget_error ~resource:Budget.Bindings "bindings" (fun () ->
      let guard =
        Gov.make { Budget.unlimited with Budget.max_bindings = Some 2 }
      in
      Eval.run ~guard ~db:db_rs q);
  expect_budget_error ~resource:Budget.Rows "rows" (fun () ->
      let guard = Gov.make { Budget.unlimited with Budget.max_rows = Some 1 } in
      Eval.run ~guard ~db:db_rs q);
  expect_budget_error ~resource:Budget.Depth "depth" (fun () ->
      let guard = Gov.make { Budget.unlimited with Budget.max_depth = Some 0 } in
      Eval.run ~guard ~db:db_rs q)

(* (e) cancellation raises Cancelled regardless of the on_limit policy *)
let cancellation () =
  List.iter
    (fun on_limit ->
      let cancel = Cancel.create () in
      Cancel.cancel cancel;
      let guard = Gov.make ~cancel ~on_limit Budget.unlimited in
      match
        Eval.run ~guard ~db:db_rs
          (program
             (coll "Q" [ "A" ]
                (exists [ bind "r" "R" ] (eq (attr "Q" "A") (attr "r" "A")))))
      with
      | _ -> Alcotest.fail "expected Cancelled"
      | exception Eval.Eval_error e -> (
          match e.Err.kind with
          | Err.Cancelled -> ()
          | _ -> Alcotest.failf "wrong error: %s" (Err.to_string e)))
    [ `Fail; `Truncate ]

(* (f) chaos + retry: a fail-once external is transparent under retry; a
   fail-always external exhausts retries into a typed External_failure *)
let chaos_retry () =
  let prog =
    Arc_syntax.Parser.program_of_string
      "{Q(s) | exists r in R, f in \"Add\"[f.left = r.A and f.right = 1 and \
       Q.s = f.out]}"
  in
  let clean = Eval.run_rows ~db:db_rs prog in
  (* fail once, retry absorbs it *)
  let stats = Chaos.stats () in
  let slept = ref [] in
  let externals =
    List.map
      (fun impl ->
        Externals.with_retry
          ~sleep:(fun ns -> slept := ns :: !slept)
          (Chaos.wrap ~stats Chaos.Fail_once impl))
      Externals.standard
  in
  let r = Eval.run_rows ~externals ~db:db_rs prog in
  if not (Relation.equal_set r clean) then
    Alcotest.fail "fail-once + retry differs from clean run";
  Alcotest.(check int) "one injected failure" 1 stats.Chaos.failures;
  Alcotest.(check (list int)) "one backoff sleep" [ 1_000_000 ] !slept;
  (* fail always, retry exhausts *)
  let slept = ref [] in
  let externals =
    List.map
      (fun impl ->
        Externals.with_retry ~attempts:3 ~backoff_ns:10
          ~sleep:(fun ns -> slept := ns :: !slept)
          (Chaos.wrap (Chaos.Fail_every 1) impl))
      Externals.standard
  in
  (match Eval.run ~externals ~db:db_rs prog with
  | _ -> Alcotest.fail "expected External_failure"
  | exception Eval.Eval_error e -> (
      match e.Err.kind with
      | Err.External_failure { relation = "Add"; attempts = 3; _ } -> ()
      | _ -> Alcotest.failf "wrong error: %s" (Err.to_string e)));
  (* exponential backoff: 10, 20 (no sleep after the last attempt) *)
  Alcotest.(check (list int)) "backoff schedule" [ 20; 10 ] !slept

(* (g) regression: the typed constructors render exactly the strings the
   seed engine produced for the test_engine failure cases *)
let message_compat () =
  let cases =
    [
      ( "unknown relation",
        program
          (coll "Q" [ "A" ]
             (exists [ bind "r" "NoSuch" ] (eq (attr "Q" "A") (attr "r" "A")))),
        "in collection \"Q\": unknown relation \"NoSuch\"",
        Err.make ~context:[ "Q" ] (Err.Unknown_relation "NoSuch") );
      ( "unassigned head attribute",
        program
          (coll "Q" [ "A"; "B" ]
             (exists [ bind "r" "R" ] (eq (attr "Q" "A") (attr "r" "A")))),
        "in collection \"Q\": head attribute Q.B has no assignment predicate",
        Err.make ~context:[ "Q" ]
          (Err.Head_unassigned { head = "Q"; attr = "B" }) );
      ( "unseeded external",
        program
          (coll "Q" [ "A" ]
             (exists [ bind "f" "Minus" ] (eq (attr "Q" "A") (attr "f" "out")))),
        "in collection \"Q\": no access pattern of external relation \
         \"Minus\" accepts bound attributes {}",
        Err.make ~context:[ "Q" ]
          (Err.Unbound_external { relation = "Minus"; bound = [] }) );
      ( "unstratifiable",
        program
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
             (exists [ bind "t" "T" ] (eq (attr "Q" "x") (attr "t" "x")))),
        "unstratifiable recursion: \"T\" depends on \"T\" through negation \
         or aggregation",
        Err.make (Err.Unstratifiable { name = "T"; dep = "T" }) );
    ]
  in
  List.iter
    (fun (name, prog, expected_msg, expected_err) ->
      match Eval.run ~db:db_rs prog with
      | _ -> Alcotest.failf "%s: expected Eval_error" name
      | exception Eval.Eval_error e ->
          Alcotest.(check string)
            (name ^ " message") expected_msg (Err.to_string e);
          Alcotest.(check string)
            (name ^ " constructor round-trip")
            (Err.to_string expected_err) (Err.to_string e);
          if e.Err.kind <> expected_err.Err.kind then
            Alcotest.failf "%s: kinds differ" name)
    cases;
  (* nested contexts render outermost-first *)
  Alcotest.(check string)
    "context chain"
    "in collection \"A\": in collection \"B\": unknown relation \"X\""
    (Err.to_string (Err.make ~context:[ "A"; "B" ] (Err.Unknown_relation "X")))

(* (h) governed evaluation with no tripped limits is observationally
   transparent, and the unlimited governor stays inactive *)
let join_query_stub =
  coll "Q" [ "A" ]
    (exists
       [ bind "r" "R"; bind "s" "S" ]
       (conj
          [
            eq (attr "Q" "A") (attr "r" "A");
            eq (attr "r" "B") (attr "s" "B");
          ]))

let governed_transparency () =
  let q = program join_query_stub in
  let baseline = Eval.run_rows ~db:db_rs q in
  List.iter
    (fun guard ->
      let r = Eval.run_rows ~guard:(guard ()) ~db:db_rs q in
      if not (Relation.equal_set baseline r) then
        Alcotest.fail "governed result differs")
    [
      (fun () -> Gov.unlimited ());
      (fun () -> Gov.default ());
      (fun () ->
        Gov.make
          (Budget.with_timeout_ms 60_000
             { Budget.default with Budget.max_rows = Some 1_000_000 }));
    ];
  if Gov.active (Gov.unlimited ()) then
    Alcotest.fail "unlimited governor should be inactive";
  if Gov.active (Gov.default ()) then
    Alcotest.fail "default governor should be inactive (iteration cap only)";
  if not (Gov.active (Gov.make (Budget.with_timeout_ms 1 Budget.unlimited)))
  then Alcotest.fail "deadline governor should be active"

let () =
  Alcotest.run "arc_guard"
    [
      ( "budgets",
        [
          Alcotest.test_case "iteration budget stops divergence" `Quick
            iteration_budget;
          Alcotest.test_case "wall-clock deadline" `Quick deadline;
          Alcotest.test_case "rows/bindings/depth budgets" `Quick
            other_budgets;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "truncation-subset property" `Quick
            truncation_subset;
          Alcotest.test_case "cancellation" `Quick cancellation;
          Alcotest.test_case "governed transparency" `Quick
            governed_transparency;
        ] );
      ( "chaos",
        [ Alcotest.test_case "retry vs injected faults" `Quick chaos_retry ] );
      ( "errors",
        [
          Alcotest.test_case "seed message compatibility" `Quick
            message_compat;
        ] );
    ]
