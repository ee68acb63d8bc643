(* The closed loop: one client submits an op, waits for its rendered
   result, checks it against an oracle (untimed), and submits the next,
   until the timed phase has lasted the requested number of seconds.

   An op is the whole user-visible path. For a query: text -> parse ->
   implicit ANALYZE (as [arc eval] runs it) -> compile -> execute -> sorted
   CSV. For an update: [Ivm.apply] -> read both views -> CSV. A traced run
   wraps every call into a layer's public entry point in a span and reads
   the executor's per-node actuals; it alternates traced and untraced
   cycles of ops, so both latencies come from the same run and their ratio
   is the tracing overhead. *)

module Relation = Arc_relation.Relation
module Database = Arc_relation.Database
module Csv = Arc_relation.Csv
module Conventions = Arc_value.Conventions
module Eval = Arc_engine.Eval
module Exec = Arc_engine.Exec
module Ir = Arc_plan.Ir
module Opt = Arc_plan.Opt
module Lower = Arc_plan.Lower
module Explain = Arc_plan.Explain
module Ivm = Arc_ivm.Ivm

let names = List.map fst Spec.workloads
let chain_len = 256
let ivm_chain = 48
let view_names = [ "rollup"; "tc" ]

(* Ivm.check re-evaluates both views from scratch; it runs this often and
   once more at the end. *)
let check_every = 50

let layer tr name f =
  match tr with None -> f () | Some s -> Spans.with_span s name f

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type shop = { shop : Gen.shop; db : Database.t }

type instance =
  | Queries of {
      big : shop;  (* the dashboard queries' *)
      small : shop;  (* the correlated queries' *)
      chain : Database.t;
      rng : Random.State.t;
    }
  | Views of { ivm : Ivm.t; stream : Gen.stream }

let shop data ~customers ~orders ~items =
  let shop = Gen.shop data ~customers ~orders ~items in
  { shop; db = Gen.shop_db shop }

(* Data and op stream draw from separate generators, so the op stream does
   not depend on how many values the data took. A [variant] other than 0
   draws other data of the same sizes from the same seed. *)
let setup ?(variant = 0) workload seed =
  let data = Random.State.make [| seed; 0; variant |]
  and ops = Random.State.make [| seed; 1 |] in
  match workload with
  | "queries" ->
      let big = shop data ~customers:2000 ~orders:20_000 ~items:60_000 in
      let small = shop data ~customers:100 ~orders:1000 ~items:3000 in
      Queries { big; small; chain = Gen.chain_db chain_len; rng = ops }
  | "ivm" ->
      let shop = Gen.shop data ~customers:29 ~orders:20_000 ~items:0 in
      let db =
        Database.add (Gen.shop_db shop) "P"
          (Database.find (Gen.chain_db ivm_chain) "P")
      in
      let ivm = Ivm.create ~db () in
      Ivm.register ivm ~name:"rollup"
        (Arc_sql.To_arc.statement ~schemas:Gen.schemas
           (Arc_sql.Parse.statement_of_string Gen.rollup_sql));
      Ivm.register ivm ~name:"tc"
        (Arc_syntax.Parser.program_of_string (Gen.eq16_text 0));
      Views { ivm; stream = Gen.stream ops shop ~chain:ivm_chain }
  | w -> invalid_arg ("unknown workload " ^ w)

(* nearest rank *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* The host's speed drifts by a quarter or more over minutes. [calibrate]
   times a fixed integer loop that allocates nothing and touches no
   memory, so only the host, never a change to the engine, can change its
   time. Reported timings are scaled by [reference_ms] over the median of
   a run's calibrations, so they are in milliseconds (seconds) at the
   speed the host had while the bounds were tuned. *)
let reference_ms = 1.8

let calibrate () =
  let t0 = Spans.now () in
  let r = ref 0 in
  for k = 1 to 1_000_000 do
    r := ((!r * 1103515245) + k) land 0xFFFFFF
  done;
  ignore (Sys.opaque_identity !r);
  Int64.to_float (Int64.sub (Spans.now ()) t0) /. 1e6

(* Set-up starts from a collected heap, so it does not pay for collecting
   the instance before it. Each is preceded by a calibration. *)
let time_setup cals workload seed variant =
  cals := calibrate () :: !cals;
  Gc.full_major ();
  let t0 = Spans.now () in
  let inst = setup ~variant workload seed in
  (inst, Int64.to_float (Int64.sub (Spans.now ()) t0) /. 1e9)

(* Set-up times on other data of the same sizes (variants 2, 3, ...), at
   least eight and until two seconds of set-up have been timed (at most
   100). Set-up time depends on the data (registering the [ivm] views
   varies by up to a third from one seed to another), so [setup_s] is a
   median over data as well as over repeats. *)
let setup_times cals workload seed =
  let rec go times total =
    let reps = List.length times in
    if (reps >= 8 && total >= 2.0) || reps >= 100 then times
    else
      let _, dt = time_setup cals workload seed (reps + 2) in
      go (dt :: times) (total +. dt)
  in
  go [] 0.

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)
(* ------------------------------------------------------------------ *)

type op =
  | Query of {
      db : Database.t;
      text : string;
      arc : bool;  (* ARC text, else SQL *)
      conv : Conventions.t;
      check : Relation.t -> bool;
    }
  | Batch of Gen.batch

(* ops of one kind repeat with this period: traced runs flip tracing per
   cycle so every kind is sampled traced and untraced alike *)
let cycle = function Queries _ -> Array.length Gen.mix | Views _ -> 5

let sql_op { shop; db } q =
  Query
    {
      db;
      text = Gen.sql q;
      arc = false;
      conv = Conventions.sql;
      check = Oracle.check_query shop q;
    }

let next_op inst i =
  match inst with
  | Queries { big; small; chain; rng } -> (
      match Gen.mix.(i mod Array.length Gen.mix) with
      | Dashboard k -> sql_op big (Gen.analytics_query rng big.shop k)
      | Correlated k -> sql_op small (Gen.correlated_query rng k)
      | Closure ->
          Query
            {
              db = chain;
              text = Gen.tc_text rng;
              arc = true;
              conv = Conventions.sql_set;
              check = Oracle.check_chain_closure ~n:chain_len;
            })
  | Views { stream; _ } -> Batch (Gen.ivm_batch stream i)

(* Untraced, compilation is the one call users make; traced, the same four
   phases run one by one so each gets its own span. *)
let compile tr ~conv ~db prog =
  match tr with
  | None ->
      let ctx, _, plan, _ = Exec.compile ~conv ~db prog in
      (ctx, plan)
  | Some _ ->
      let prog, _ = layer tr "plan.magic" (fun () -> Opt.magic_sets prog) in
      let ctx, safe =
        layer tr "engine.prepare" (fun () ->
            Eval.Internal.prepare ~conv ~db prog)
      in
      let lenv, raw =
        layer tr "plan.lower" (fun () ->
            let defs = List.map (fun d -> d.Arc_core.Ast.def_name) safe in
            let lenv = Lower.env_of_db ~db ~defs in
            (lenv, Lower.lower_program lenv ~safe prog))
      in
      let plan, _ =
        layer tr "plan.optimize" (fun () -> Opt.optimize lenv raw)
      in
      (ctx, plan)

type ran =
  | Ran_query of {
      prog : Arc_core.Ast.program;
      db : Database.t;  (* analyzed *)
      plan : Ir.program_plan;
      stats : Ir.stats option;
      rel : Relation.t;
      exec_ns : int64;
    }
  | Ran_batch of Ivm.view_report list

let run_query tr ~db ~text ~arc ~conv =
  let prog =
    if arc then
      layer tr "syntax.parse" (fun () ->
          Arc_syntax.Parser.program_of_string text)
    else
      let stmt =
        layer tr "sql.parse" (fun () -> Arc_sql.Parse.statement_of_string text)
      in
      layer tr "sql.to_arc" (fun () ->
          Arc_sql.To_arc.statement ~schemas:Gen.schemas stmt)
  in
  let db = layer tr "relation.analyze" (fun () -> Database.analyze db) in
  let ctx, plan = compile tr ~conv ~db prog in
  let stats = Option.map (fun _ -> Ir.fresh_stats ()) tr in
  let t0 = Spans.now () in
  let rel =
    layer tr "engine.exec" (fun () ->
        match Exec.exec_program ?stats ctx plan with
        | Eval.Rows r -> r
        | Eval.Truth _ -> failwith "expected rows, got a truth value")
  in
  let exec_ns = Int64.sub (Spans.now ()) t0 in
  ignore (layer tr "relation.render" (fun () -> Csv.write (Relation.sort rel)));
  Ran_query { prog; db; plan; stats; rel; exec_ns }

let run_batch tr ivm batch =
  let reports = layer tr "ivm.apply" (fun () -> Ivm.apply ivm batch) in
  let views =
    layer tr "ivm.result" (fun () -> List.map (Ivm.result ivm) view_names)
  in
  ignore (layer tr "relation.render" (fun () -> List.map Csv.write views));
  Ran_batch reports

let run_op inst tr op =
  match (inst, op) with
  | Queries _, Query { db; text; arc; conv; _ } ->
      run_query tr ~db ~text ~arc ~conv
  | Views { ivm; _ }, Batch b -> run_batch tr ivm b
  | _ -> invalid_arg "op does not match its workload"

(* ------------------------------------------------------------------ *)
(* Per-layer counters of traced ops                                    *)
(* ------------------------------------------------------------------ *)

let bump c k v =
  Hashtbl.replace c k (v +. Option.value ~default:0. (Hashtbl.find_opt c k))

let ms_of_ns ns = Int64.to_float ns /. 1e6

(* Executor actuals, aggregated by operator. A lateral node runs its
   subplan once per input row, so its cost is its inclusive time minus its
   input's, and its invocations are the rows its input fed it. The
   fixpoint loop itself (the seen-set and the accumulating union) runs
   outside every plan node, so its time is what [engine.exec] spent outside
   the nodes. *)
let record_actuals c plan stats ~exec_ns =
  let inside = ref 0L and fixpoint = ref false in
  let actual id = Ir.actual_of stats id in
  let f = float_of_int in
  List.iter
    (fun (ni : Explain.node_info) ->
      inside := Int64.add !inside ni.ni_excl_ns;
      match ni.ni_actual with
      | None -> ()
      | Some a -> (
          let excl = ms_of_ns ni.ni_excl_ns in
          match ni.ni_op with
          | "hash_join" ->
              bump c "exec.hash_join.excl_ms" excl;
              bump c "exec.hash_join.build_rows" (f a.Ir.a_build);
              bump c "exec.hash_join.probe_rows" (f a.Ir.a_probe);
              bump c "exec.hash_join.matches" (f a.Ir.a_matches)
          | "hash_aggregate" -> bump c "exec.hash_aggregate.excl_ms" excl
          | "semi_join" | "anti_join" -> bump c "exec.semi.excl_ms" excl
          | "lateral" ->
              let input_ns, input_rows =
                match actual (ni.ni_id + 1) with
                | Some i -> (i.Ir.a_incl_ns, i.Ir.a_rows)
                | None -> (0L, 0)
              in
              bump c "exec.lateral.excl_ms"
                (ms_of_ns (Int64.sub a.Ir.a_incl_ns input_ns));
              bump c "exec.lateral.invocations" (f input_rows)
          | "union" when a.Ir.a_iterations > 0 ->
              fixpoint := true;
              bump c "exec.fixpoint.iterations" (f a.Ir.a_iterations);
              bump c "exec.fixpoint.delta_rows"
                (f (List.fold_left ( + ) 0 a.Ir.a_deltas))
          | _ -> ()))
    (Explain.analyze_info plan ~stats);
  if !fixpoint then
    bump c "exec.fixpoint.excl_ms"
      (Float.max 0. (ms_of_ns (Int64.sub exec_ns !inside)))

let record c ran =
  match ran with
  | Ran_query { db; plan; stats; rel; exec_ns; _ } ->
      bump c "relation.analyze.rows_in"
        (float_of_int
           (List.fold_left
              (fun n r -> n + Relation.cardinality (Database.find db r))
              0 (Database.names db)));
      bump c "engine.exec.rows_out" (float_of_int (Relation.cardinality rel));
      Option.iter (fun stats -> record_actuals c plan stats ~exec_ns) stats
  | Ran_batch reports ->
      List.iter
        (fun (r : Ivm.view_report) ->
          let key = if r.vr_view = "rollup" then "counting" else "dred" in
          bump c ("ivm." ^ key ^ ".ms") (ms_of_ns r.vr_ns);
          bump c "ivm.out_delta_rows" (float_of_int r.vr_out_delta);
          bump c "ivm.fallbacks" (float_of_int r.vr_fallbacks))
        reports

(* The traced path must compile to exactly the plan [Exec.compile] gives,
   or the per-phase spans would describe a different computation. *)
let parity_ok ~conv ran =
  match ran with
  | Ran_query { prog; db; plan; _ } ->
      let _, _, plan', _ = Exec.compile ~conv ~db prog in
      Explain.program_plan_to_string plan
      = Explain.program_plan_to_string plan'
  | Ran_batch _ -> true

(* ------------------------------------------------------------------ *)
(* The timed loop                                                      *)
(* ------------------------------------------------------------------ *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

(* [setup_s] is the median of the set-ups on other data and the one on the
   seed's own data, which the timed phase uses. The first set-up of the
   process is not timed: it also pays for growing the heap. *)
let run ?spans_out ?(max_ops = max_int) ~workload ~seed ~seconds ~trace () =
  let cals = ref [] in
  ignore (time_setup cals workload seed 1);
  let others = setup_times cals workload seed in
  let inst, own = time_setup cals workload seed 0 in
  let spans = if trace then Some (Spans.create ()) else None in
  let c = Hashtbl.create 64 in
  let untraced = ref [] and traced = ref [] in
  let attempted = ref 0 and failed = ref 0 and parity = ref true in
  let checked = Hashtbl.create 64 in
  let timed = ref 0L and budget = Int64.of_float (seconds *. 1e9) in
  let gc_words = ref 0. and gc_major = ref 0 in
  let ivm_check () =
    match inst with Views { ivm; _ } -> Ivm.check ivm = [] | _ -> true
  in
  let i = ref 0 and next_cal = ref 0L in
  while !timed < budget && !i < max_ops do
    (* a calibration before the op once 50 ms of ops have run since the
       last one *)
    if !timed >= !next_cal then begin
      cals := calibrate () :: !cals;
      next_cal := Int64.add !timed 50_000_000L
    end;
    let tr = if trace && !i / cycle inst mod 2 = 0 then spans else None in
    let op = next_op inst !i in
    Option.iter (fun s -> Spans.set_op s !i) tr;
    let m0 = (Gc.quick_stat ()).major_collections in
    let w0 = Gc.minor_words () in
    let t0 = Spans.now () in
    let ran =
      try Ok (layer tr "op" (fun () -> run_op inst tr op)) with e -> Error e
    in
    let t1 = Spans.now () in
    let w1 = Gc.minor_words () in
    let m1 = (Gc.quick_stat ()).major_collections in
    let ns = Int64.sub t1 t0 in
    timed := Int64.add !timed ns;
    incr attempted;
    let ok =
      match (ran, op) with
      | Error e, _ ->
          Printf.eprintf "op %d failed: %s\n%!" !i (Printexc.to_string e);
          false
      | Ok (Ran_query { rel; _ } as r), Query { text; conv; check; _ } ->
          if tr <> None then begin
            record c r;
            if not (Hashtbl.mem checked text) then begin
              Hashtbl.add checked text ();
              if not (parity_ok ~conv r) then begin
                Printf.eprintf "op %d: traced plan differs: %s\n%!" !i text;
                parity := false
              end
            end
          end;
          check rel
      | Ok (Ran_batch _ as r), Batch _ ->
          if tr <> None then record c r;
          (!i + 1) mod check_every <> 0 || ivm_check ()
      | Ok _, _ -> false
    in
    if not ok then incr failed;
    (match tr with
    | None -> untraced := Int64.to_float ns :: !untraced
    | Some _ ->
        traced := Int64.to_float ns :: !traced;
        gc_words := !gc_words +. (w1 -. w0);
        gc_major := !gc_major + (m1 - m0));
    incr i
  done;
  if not (ivm_check ()) then incr failed;
  let metrics =
    if not trace then
      let ms p = percentile p !untraced /. 1e6 in
      let ops_per_s = float_of_int !attempted /. (Int64.to_float !timed /. 1e9)
      and setup_s = percentile 0.5 (own :: others) in
      let cal = percentile 0.5 !cals in
      let scale = reference_ms /. cal in
      Printf.eprintf
        "calibration %.4f ms (reference %g ms), scale %.4f; unscaled: p50 \
         %.3f ms, p90 %.3f ms, %.4f ops/s, setup %.5f s\n%!"
        cal reference_ms scale (ms 0.5) (ms 0.9) ops_per_s setup_s;
      let st = Gc.quick_stat () in
      [
        ("latency_p50_ms", ms 0.5 *. scale);
        ("latency_p90_ms", ms 0.9 *. scale);
        ("ops_per_s", ops_per_s /. scale);
        ( "peak_heap_mb",
          float_of_int (st.top_heap_words * (Sys.word_size / 8)) /. 1e6 );
        ("setup_s", setup_s *. scale);
      ]
    else begin
      let spans = Option.get spans in
      Option.iter (Spans.write spans) spans_out;
      let totals = Spans.totals spans in
      let n = float_of_int (max 1 (List.length !traced)) in
      (* self ns and words of a layer's spans, summed over the run *)
      let span name =
        Option.value ~default:(0., 0.) (Hashtbl.find_opt totals name)
      in
      let sum k = Option.value ~default:0. (Hashtbl.find_opt c k) in
      let ratio a b = if b = 0. then 0. else a /. b in
      let layer_ms name = fst (span name) /. n /. 1e6 in
      let rows_out = sum "engine.exec.rows_out" in
      let value name =
        match name with
        | "relation.analyze.words" | "engine.exec.words" ->
            snd (span (Filename.remove_extension name)) /. n
        | "engine.exec.ns_per_row_out" ->
            ratio (fst (span "engine.exec")) rows_out
        | "engine.exec.words_per_row_out" ->
            ratio (snd (span "engine.exec")) rows_out
        | "exec.hash_join.match_ratio" ->
            ratio
              (sum "exec.hash_join.matches")
              (sum "exec.hash_join.probe_rows")
        | "ivm.base_delta.ms" ->
            layer_ms "ivm.apply"
            -. ((sum "ivm.counting.ms" +. sum "ivm.dred.ms") /. n)
        | "ivm.state_rows" -> (
            match inst with
            | Views { ivm; _ } -> float_of_int (Ivm.state_rows ivm)
            | _ -> 0.)
        | "gc.minor_words" -> !gc_words /. n
        | "gc.major_collections" -> float_of_int !gc_major /. n
        | "trace.overhead_pct" ->
            100.
            *. (ratio (percentile 0.5 !traced) (percentile 0.5 !untraced) -. 1.)
        (* counters recorded from actuals and IVM reports *)
        | _ when Hashtbl.mem c name -> sum name /. n
        (* the self time of the span named like the metric *)
        | _ when Filename.extension name = ".ms" ->
            layer_ms (Filename.remove_extension name)
        | _ -> 0.
      in
      List.map (fun (name, _, _) -> (name, value name)) Spec.per_layer
    end
  in
  {
    correct = !failed = 0 && !parity;
    attempted = !attempted;
    failed = !failed;
    metrics;
  }
