(* The bench gate on fixtures: a passing record set, and one fixture per
   check, each failing that check alone with its own message. The
   committed BENCH.json must parse and pass against itself. *)

open Arc_bench
open Report

let read path =
  match Report.read path with
  | Ok (Some t) -> t
  | Ok None -> Alcotest.failf "%s: no such file" path
  | Error e -> Alcotest.failf "%s: %s" path e

let pass = lazy (read "fixtures/pass.json")

(* [f] applied to every row of [workload] (and [arm], when given) *)
let edit ?arm workload f t =
  {
    t with
    rows =
      List.map
        (fun r ->
          if r.workload = workload && (arm = None || Some r.arm = arm) then
            f r
          else r)
        t.rows;
  }

let ns_of ~arm workload t =
  (List.find (fun r -> r.workload = workload && r.arm = arm) t.rows).ns

(* the plan arm of [workload] at [x] times its reference *)
let speedup_to x workload t =
  let refr = ns_of ~arm:Gate.reference workload t in
  edit ~arm:Gate.plan workload (fun r -> { r with ns = refr /. x }) t

(* [w]'s speedup cut to 0.79x of its value in [t], the fixture's baseline *)
let below_floor w t =
  speedup_to (0.79 *. Option.get (Gate.speedup t.rows w)) w t

(* name, whether the fixture is checked against the passing set as its
   baseline, the edit, and the prefix of the one message it must fail
   with *)
let fixtures =
  [
    ( "divergent bag_equal",
      true,
      edit ~arm:Gate.plan Gate.rollup (fun r ->
          { r with bag_equal = Some false }),
      "bag_equal:" );
    ( "best speedup below 2x",
      false,
      (fun t ->
        List.fold_left
          (fun t w -> speedup_to 1.9 w t)
          t Gate.engine_workloads),
      "engine: best plan-engine speedup" );
    ( "rollup below 0.8x of the baseline",
      true,
      below_floor Gate.rollup,
      "regression: analytics rollup" );
    ( "matmul below 0.8x of the baseline",
      true,
      below_floor Gate.matmul,
      "regression: matrix multiplication" );
    ( "analyze workload with no executed node",
      true,
      edit ~arm:Gate.analyze Gate.matmul (fun r -> { r with rows_out = None }),
      "analyze: matrix multiplication" );
    ( "rollup IVM not incremental",
      true,
      edit ~arm:"incremental" Gate.rollup (fun r ->
          { r with arm = "fallback" }),
      "ivm: the single-row rollup fell back" );
    ( "rollup IVM at 1x",
      true,
      (fun t ->
        let reeval = ns_of ~arm:Gate.reeval Gate.rollup t in
        edit ~arm:"incremental" Gate.rollup
          (fun r -> { r with ns = reeval })
          t),
      "ivm: incremental maintenance" );
    ( "magic sets at 1x",
      true,
      (fun t ->
        let off = ns_of ~arm:Gate.magic_off Gate.goal t in
        edit ~arm:Gate.magic_on Gate.goal (fun r -> { r with ns = off }) t),
      "magic: the rewrite" );
  ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let passing () =
  let t = Lazy.force pass in
  Alcotest.(check (list string)) "no baseline" [] (Gate.check t);
  Alcotest.(check (list string)) "against itself" [] (Gate.check ~baseline:t t)

let each_fixture_fails_alone () =
  let t = Lazy.force pass in
  let messages =
    List.map
      (fun (name, with_baseline, f, prefix) ->
        let baseline = if with_baseline then Some t else None in
        match Gate.check ?baseline (f t) with
        | [ m ] when starts_with ~prefix m -> m
        | ms ->
            Alcotest.failf "%s: expected one %S failure, got [%s]" name prefix
              (String.concat "; " ms))
      fixtures
  in
  Alcotest.(check int)
    "every fixture fails with its own message" (List.length fixtures)
    (List.length (List.sort_uniq compare messages))

(* a NaN time is never a pass *)
let unmeasured_fails () =
  let t = Lazy.force pass in
  let nan_magic =
    edit ~arm:Gate.magic_on Gate.goal (fun r -> { r with ns = Float.nan }) t
  in
  Alcotest.(check bool)
    "NaN magic time fails" true
    (Gate.check nan_magic <> []);
  let no_magic =
    { t with rows = List.filter (fun r -> r.workload <> Gate.goal) t.rows }
  in
  Alcotest.(check bool)
    "missing magic rows fail" true
    (Gate.check no_magic <> [])

let round_trip () =
  let t = Lazy.force pass in
  match Report.of_string (Report.to_string t) with
  | Ok t' -> Alcotest.(check bool) "parse (print t) = t" true (compare t t' = 0)
  | Error e -> Alcotest.fail e

let committed_baseline () =
  let t = read "../BENCH.json" in
  Alcotest.(check (list string)) "BENCH.json passes against itself" []
    (Gate.check ~baseline:t t)

let () =
  Alcotest.run "arc_bench_gate"
    [
      ( "gate",
        [
          Alcotest.test_case "passing record set" `Quick passing;
          Alcotest.test_case "each check fails alone" `Quick
            each_fixture_fails_alone;
          Alcotest.test_case "unmeasured or missing rows fail" `Quick
            unmeasured_fails;
        ] );
      ( "report",
        [
          Alcotest.test_case "JSON round trip" `Quick round_trip;
          Alcotest.test_case "committed BENCH.json" `Quick committed_baseline;
        ] );
    ]
