(* The bench gate: the checks a fresh report must pass, some of them
   against the committed baseline, BENCH.json. [check] returns one message
   per failed check, each starting with the name of its check; [] means
   the report passes. *)

open Report

(* workload and arm names the harness writes and the gate reads *)
let tc = "TC chain (eq16)"
let rollup = "analytics rollup"
let matmul = "matrix multiplication (eq26)"
let engine_workloads = [ tc; rollup; matmul ]
let reference = "reference"
let plan = "plan"
let analyze = "analyze"
let single_row = "single-row insert"
let reeval = "re-eval"
let goal = "ancestors of one node (eq16)"
let magic_on = "magic=on"
let magic_off = "magic=off"

let find rows ~workload ~arm =
  List.find_opt (fun r -> r.workload = workload && r.arm = arm) rows

(* the reference/plan time ratio of an engine-ablation workload *)
let speedup rows w =
  match (find rows ~workload:w ~arm:reference, find rows ~workload:w ~arm:plan)
  with
  | Some r, Some p -> Some (r.ns /. p.ns)
  | _ -> None

(* Every comparison is written so that a NaN time fails it. *)
let check ?baseline (t : Report.t) =
  let rows = t.rows in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  (* every arm that was compared with the reference agrees with it: the
     engine ablation's plans, the maintained IVM views, the magic-sets
     arms and the paper-reproduction checks *)
  List.iter
    (fun r ->
      if r.bag_equal = Some false then
        fail "bag_equal: %s (scale %d) %s / %s diverges from the reference"
          r.workload r.scale r.arm r.phase)
    rows;
  (* the plan engine beats the reference evaluator by 2x somewhere *)
  let speedups = List.map (fun w -> (w, speedup rows w)) engine_workloads in
  List.iter
    (fun (w, s) ->
      if s = None then fail "engine: %s lacks its reference or plan row" w)
    speedups;
  let best =
    List.fold_left
      (fun acc (_, s) -> Option.fold ~none:acc ~some:(Float.max acc) s)
      Float.neg_infinity speedups
  in
  if not (best >= 2.0) then
    fail "engine: best plan-engine speedup only %.2fx (< 2x)" best;
  (* the join-heavy workloads carry the plan engine's headline result and
     keep 0.8x of the baseline's ratio; the TC chain is fixpoint-dominated
     and too noisy to hold to its baseline *)
  Option.iter
    (fun (b : Report.t) ->
      List.iter
        (fun w ->
          match (speedup b.rows w, speedup rows w) with
          | Some base, fresh when Float.is_finite base ->
              let floor = 0.8 *. base in
              if not (Option.fold ~none:false ~some:(fun s -> s >= floor) fresh)
              then
                fail
                  "regression: %s plan/reference speedup %s is below 0.8x of \
                   the baseline's %.2fx (floor %.2fx)"
                  w
                  (Option.fold ~none:"missing"
                     ~some:(Printf.sprintf "%.2fx") fresh)
                  base floor
          | _ -> ())
        [ rollup; matmul ])
    baseline;
  (* EXPLAIN ANALYZE recorded at least one executed node per workload *)
  List.iter
    (fun w ->
      if
        not
          (List.exists
             (fun r -> r.workload = w && r.arm = analyze && r.rows_out <> None)
             rows)
      then fail "analyze: %s has no executed plan node" w)
    engine_workloads;
  (* Maintaining the rollup under a single-row insert beats re-evaluating
     it. The IVM ablation recorded 10.9x when it landed, with re-evaluation
     at 588 µs; the plan engine has since cut re-evaluation to 160-240 µs,
     and runs on a 2-vCPU x86-64 box measure 1.1-1.7x with the arms timed
     one after the other, 1.8-2.1x interleaved. The margin is thin, so the
     threshold stays at 1x; ROADMAP item 9 (IVM in O(|delta|)) is the
     lever that widens it. *)
  (match
     List.partition
       (fun r -> r.arm = reeval)
       (List.filter (fun r -> r.workload = rollup && r.phase = single_row) rows)
   with
  | [ re ], [ m ] ->
      if m.arm <> "incremental" then
        fail "ivm: the single-row rollup fell back to %s maintenance" m.arm
      else if not (re.ns /. m.ns > 1.0) then
        fail
          "ivm: incremental maintenance of the single-row rollup is slower \
           than re-evaluation (%.2fx)"
          (re.ns /. m.ns)
  | _ -> fail "ivm: the single-row rollup lacks its maintained or re-eval row");
  (* the magic-sets rewrite beats the full fixpoint on a bound query *)
  (match
     ( find rows ~workload:goal ~arm:magic_on,
       find rows ~workload:goal ~arm:magic_off )
   with
  | Some on, Some off ->
      if not (off.ns /. on.ns > 1.0) then
        fail "magic: the rewrite does not beat the full fixpoint (%.2fx)"
          (off.ns /. on.ns)
  | _ -> fail "magic: %s lacks its magic=on or magic=off row" goal);
  List.rev !failures
