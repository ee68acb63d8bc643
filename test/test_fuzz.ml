(* Fuzz subsystem tests.

   - Every checked-in repro under [repros/] is a shrunk case that once
     exposed a real divergence; replaying it through the full oracle must
     now come back clean (the owning layer carries the fix), which makes
     each repro a permanent regression test.
   - The greedy shrinker's invariants: the result still validates, still
     fails the caller's predicate, never grows, and is a local minimum
     (no variant of it both validates and fails). *)

module Fuzz = Arc_fuzz
module Case = Fuzz.Case
module Oracle = Fuzz.Oracle
module Gen = Fuzz.Gen
module Shrink = Fuzz.Shrink
module Repro = Fuzz.Repro
module Driver = Fuzz.Driver
module Database = Arc_relation.Database
module Relation = Arc_relation.Relation

let repros_root = "repros"

(* ------------------------------------------------------------------ *)
(* Repro replay                                                        *)
(* ------------------------------------------------------------------ *)

let repro_dirs = Repro.list_repros repros_root

let replay dir () =
  let case, meta = Repro.load dir in
  (match Case.validate case with
  | Ok () -> ()
  | Error errs ->
      Alcotest.failf "%s: repro no longer validates: %s" dir
        (String.concat "; "
           (List.map Arc_core.Analysis.error_to_string errs)));
  match Oracle.check case with
  | [] -> ()
  | divs ->
      Alcotest.failf "%s: regressed (was: %s):@.%s" dir
        (match List.assoc_opt "kind" meta with Some k -> k | None -> "?")
        (String.concat "\n" (List.map Oracle.divergence_to_string divs))

let repro_tests =
  List.map
    (fun dir -> Alcotest.test_case (Filename.basename dir) `Quick (replay dir))
    repro_dirs

let repros_present () =
  if List.length repro_dirs < 3 then
    Alcotest.failf "expected at least 3 checked-in repros, found %d"
      (List.length repro_dirs)

(* ------------------------------------------------------------------ *)
(* Shrinker invariants                                                 *)
(* ------------------------------------------------------------------ *)

(* a deterministic, semantics-free failure predicate: the case still
   mentions at least one base-relation row anywhere in its database *)
let has_rows (c : Case.t) =
  List.exists
    (fun n -> Relation.cardinality (Database.find c.Case.db n) > 0)
    (Database.names c.Case.db)

let gen_valid_case seed =
  let rec try_i i =
    if i > 200 then Alcotest.fail "generator produced no valid case in 200 tries"
    else
      let st = Random.State.make [| seed; i |] in
      let c = Gen.gen_case st in
      match Case.validate c with
      | Ok () when has_rows c -> c
      | _ -> try_i (i + 1)
  in
  try_i 0

let shrink_preserves_predicate () =
  List.iter
    (fun seed ->
      let c0 = gen_valid_case seed in
      let c, _steps = Shrink.shrink ~fails:has_rows c0 in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: shrunk case still validates" seed)
        true
        (match Case.validate c with Ok () -> true | Error _ -> false);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: shrunk case still fails" seed)
        true (has_rows c))
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let shrink_never_grows () =
  List.iter
    (fun seed ->
      let c0 = gen_valid_case seed in
      let c, steps = Shrink.shrink ~fails:has_rows c0 in
      if Case.size c > Case.size c0 then
        Alcotest.failf "seed %d: size grew %d -> %d" seed (Case.size c0)
          (Case.size c);
      if steps > 0 && Case.size c >= Case.size c0 then
        Alcotest.failf "seed %d: %d accepted steps but size did not shrink"
          seed steps)
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let shrink_reaches_local_minimum () =
  List.iter
    (fun seed ->
      let c0 = gen_valid_case seed in
      (* unlimited-enough attempts so the loop stops by minimality, not cap *)
      let c, _ = Shrink.shrink ~max_attempts:100_000 ~fails:has_rows c0 in
      let improvable =
        List.exists
          (fun v ->
            Case.size v < Case.size c
            && (match Case.validate v with Ok () -> true | Error _ -> false)
            && has_rows v)
          (Shrink.case_variants c)
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: no smaller valid failing variant" seed)
        false improvable)
    [ 0; 1; 2; 3 ]

let shrink_respects_attempt_cap () =
  let c0 = gen_valid_case 11 in
  (* with a zero budget the shrinker must return the input unchanged *)
  let c, steps = Shrink.shrink ~max_attempts:0 ~fails:has_rows c0 in
  Alcotest.(check int) "no steps under zero budget" 0 steps;
  Alcotest.(check int) "size unchanged" (Case.size c0) (Case.size c)

(* a predicate pinned to the failure *kind*, as the driver uses: shrinking a
   divergent case must preserve divergence of the same kind, here simulated
   with a structural kind (program still quantifies over some relation) *)
let shrink_driver_style_predicate () =
  let c0 = gen_valid_case 17 in
  let mentions_exists (c : Case.t) =
    let rec f_has (f : Arc_core.Ast.formula) =
      match f with
      | Arc_core.Ast.Exists _ -> true
      | Arc_core.Ast.And fs | Arc_core.Ast.Or fs -> List.exists f_has fs
      | Arc_core.Ast.Not g -> f_has g
      | _ -> false
    in
    match c.Case.prog.Arc_core.Ast.main with
    | Arc_core.Ast.Coll coll -> f_has coll.Arc_core.Ast.body
    | Arc_core.Ast.Sentence f -> f_has f
  in
  if mentions_exists c0 then begin
    let c, _ = Shrink.shrink ~fails:mentions_exists c0 in
    Alcotest.(check bool) "kind-style predicate preserved" true
      (mentions_exists c)
  end

(* ------------------------------------------------------------------ *)
(* Driver smoke: a small fixed-seed campaign finds nothing             *)
(* ------------------------------------------------------------------ *)

let driver_clean_campaign () =
  let stats, findings = Driver.run ~shrink:false ~seed:7 ~count:15 () in
  Alcotest.(check int) "no divergences" 0 stats.Driver.diverged;
  Alcotest.(check (list string)) "no findings" []
    (List.map (fun f -> f.Driver.f_name) findings);
  Alcotest.(check bool) "cases were generated" true (stats.Driver.generated > 15)

(* IVM mode: every generated case becomes a maintained view; random
   signed batches (a pure function of the seed) are pushed through
   incremental maintenance and compared against from-scratch
   re-evaluation under all convention combos. *)
let driver_clean_ivm_campaign () =
  let stats, findings = Driver.run ~shrink:false ~ivm:true ~seed:42 ~count:25 () in
  Alcotest.(check int) "no ivm divergences" 0 stats.Driver.diverged;
  Alcotest.(check (list string)) "no ivm findings" []
    (List.map (fun f -> f.Driver.f_name) findings)

(* The recursive grammar draws both kinds of recursive stratum: ones the
   plan runs as delta rules, and ones whose recursive reference hides in
   an ∃ under a disjunction, which run whole-definition rules. *)
let gen_both_fixpoint_kinds () =
  let kinds =
    List.concat_map
      (fun i ->
        let c = Gen.gen_case (Random.State.make [| 5; i |]) in
        match Arc_engine.Exec.compile ~db:c.Case.db c.Case.prog with
        | _, _, optimized, _ ->
            List.filter_map
              (function
                | Arc_plan.Ir.Recursive dps ->
                    Some
                      (Arc_plan.Ir.seminaive_eligible
                         (List.map (fun d -> d.Arc_plan.Ir.dname) dps)
                         dps)
                | Arc_plan.Ir.Nonrecursive _ -> None)
              optimized.Arc_plan.Ir.strata
        | exception Arc_engine.Eval.Eval_error _ -> [])
      (List.init 200 Fun.id)
  in
  Alcotest.(check bool) "some strata run delta rules" true
    (List.mem true kinds);
  Alcotest.(check bool) "some strata run whole-definition rules" true
    (List.mem false kinds)

let () =
  Alcotest.run "arc_fuzz"
    [
      ("repros", Alcotest.test_case "at least three" `Quick repros_present :: repro_tests);
      ( "shrinker",
        [
          Alcotest.test_case "preserves predicate and validity" `Quick
            shrink_preserves_predicate;
          Alcotest.test_case "never grows" `Quick shrink_never_grows;
          Alcotest.test_case "reaches a local minimum" `Quick
            shrink_reaches_local_minimum;
          Alcotest.test_case "respects the attempt cap" `Quick
            shrink_respects_attempt_cap;
          Alcotest.test_case "driver-style kind predicate" `Quick
            shrink_driver_style_predicate;
        ] );
      ( "driver",
        [
          Alcotest.test_case "fixed-seed campaign is clean" `Quick
            driver_clean_campaign;
          Alcotest.test_case "fixed-seed ivm campaign is clean" `Quick
            driver_clean_ivm_campaign;
        ] );
      ( "generator",
        [
          Alcotest.test_case "recursive cases reach both fixpoint kinds"
            `Quick gen_both_fixpoint_kinds;
        ] );
    ]
