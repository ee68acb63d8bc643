open Arc_core.Ast
module V = Arc_value.Value
module B3 = Arc_value.Bool3
module Conventions = Arc_value.Conventions
module Aggregate = Arc_value.Aggregate
module Relation = Arc_relation.Relation
module Tuple = Arc_relation.Tuple
module Schema = Arc_relation.Schema
module Gov = Arc_guard.Gov
module Err = Arc_guard.Error
module Depend = Arc_core.Depend
module Ir = Arc_plan.Ir
module Lower = Arc_plan.Lower
module Opt = Arc_plan.Opt
module Decorrelate = Arc_plan.Decorrelate
module I = Eval.Internal

(* The physical engine: executes the Arc_plan IR with hash-based join,
   semi/anti-join, aggregation and deduplication operators. All per-row
   semantics — term, predicate and formula evaluation, governed scans and
   deferred resolution — are delegated to Eval.Internal, so the two engines
   share one notion of what a row means and can only differ in what they
   enumerate. *)

exception Eval_error = Eval.Eval_error

let raise_kind kind = raise (Eval_error (Err.make kind))

(* ------------------------------------------------------------------ *)
(* Fixpoint index caches                                               *)
(* ------------------------------------------------------------------ *)

(* Persistent per-delta-rule state for the indexed seminaive fixpoint.
   [fc_stable] marks the maximal subtrees of the rule's plan that scan
   neither the recursive component nor its __delta__ relations: their
   result cannot change between rounds, so [fc_rows] memoizes it on first
   execution. [fc_joins] marks hash joins with such a stable subtree on
   one side; [fc_tables] keeps the hash table built from that side alive
   across rounds, so each round only probes it with the current delta.
   Cached tables are always keyed through the buffer-serialized term path:
   the whole-tuple fast key is negotiated per call from the probe rows of
   one particular round and must not leak into state that outlives it. *)
type fix_cache = {
  fc_stable : (int, unit) Hashtbl.t;
  fc_rows : (int, I.benv array) Hashtbl.t;
  fc_joins : (int, [ `Left | `Right ]) Hashtbl.t;
  fc_tables : (int, (string, I.benv) Hashtbl.t) Hashtbl.t;
}

(* A subtree is stable when no scan under it resolves a [banned] relation
   (the component and its deltas). Correlated or context-dependent nodes
   (laterals, subqueries, deferred resolution) are conservatively treated
   as unstable — they may evaluate under a different outer row each time.
   Residual formulas and filters cannot reference the component at all
   here: [Ir.seminaive_eligible] rejects opaque component references
   before a stratum ever reaches the seminaive path. *)
let rec stable_subtree banned (t : Ir.t) =
  match t with
  | Ir.One -> true
  | Ir.Scan { rel; _ } -> not (List.mem rel banned)
  | Ir.Product { left; right } | Ir.Hash_join { left; right; _ } ->
      stable_subtree banned left && stable_subtree banned right
  | Ir.Filter { input; _ } | Ir.Residual { input; _ } | Ir.Prune { input; _ }
    ->
      stable_subtree banned input
  | Ir.Semi { input; sub; _ } ->
      stable_subtree banned input && stable_subtree banned sub
  | Ir.Append ts -> List.for_all (stable_subtree banned) ts
  | Ir.Lateral _ | Ir.Subquery _ | Ir.Resolve _ -> false

(* Mark the maximal stable subtrees (and the hash joins that should keep a
   persistent build table) of one delta rule, using the same positional id
   arithmetic the executor walks with. Inner plans of laterals and
   subqueries are never marked: their nodes execute under per-row outer
   environments, where memoized results would be wrong. *)
let rec mark_fix fc banned id (t : Ir.t) =
  if stable_subtree banned t then (
    match t with Ir.One -> () | _ -> Hashtbl.replace fc.fc_stable id ())
  else
    match t with
    | Ir.One | Ir.Scan _ | Ir.Subquery _ -> ()
    | Ir.Product { left; right } ->
        mark_fix fc banned (id + 1) left;
        mark_fix fc banned (id + 1 + Ir.size left) right
    | Ir.Hash_join { left; right; _ } ->
        let lid = id + 1 and rid = id + 1 + Ir.size left in
        if stable_subtree banned right then begin
          Hashtbl.replace fc.fc_joins id `Right;
          mark_fix fc banned lid left
        end
        else if stable_subtree banned left then begin
          Hashtbl.replace fc.fc_joins id `Left;
          mark_fix fc banned rid right
        end
        else begin
          mark_fix fc banned lid left;
          mark_fix fc banned rid right
        end
    | Ir.Filter { input; _ }
    | Ir.Residual { input; _ }
    | Ir.Prune { input; _ }
    | Ir.Resolve { input; _ }
    | Ir.Lateral { input; _ } ->
        mark_fix fc banned (id + 1) input
    | Ir.Semi { input; sub; _ } ->
        mark_fix fc banned (id + 1) input;
        mark_fix fc banned (id + 1 + Ir.size input) sub
    | Ir.Append ts -> List.iter2 (mark_fix fc banned) (Ir.child_ids id t) ts

let make_fix_cache banned did (d : Ir.disjunct_plan) =
  let fc =
    {
      fc_stable = Hashtbl.create 16;
      fc_rows = Hashtbl.create 16;
      fc_joins = Hashtbl.create 8;
      fc_tables = Hashtbl.create 8;
    }
  in
  (match d with
  | Ir.Project { input; _ } | Ir.Aggregate { input; _ } ->
      mark_fix fc banned (did + 1) input);
  fc

(* [stats] is the EXPLAIN ANALYZE sink: when present, every operator
   records per-node actuals keyed by the stable ids of [Ir.program_ids].
   When absent the executor takes a branch per node and nothing else.
   [fix] is only set while executing a delta rule inside the indexed
   seminaive fixpoint. *)
type env = {
  ctx : I.ctx;
  outer : I.benv;
  stats : Ir.stats option;
  fix : fix_cache option;
}

let gov env = I.gov env.ctx

let clock = Arc_obs.Metrics.now_ns

let with_actual env id f =
  match env.stats with None -> () | Some st -> f (Ir.touch st id)

let pred_true env full p = I.eval_pred env.ctx full p = B3.True
let formula_true env full f = I.eval_formula env.ctx full f = B3.True

let group_key env (full : I.benv) keys =
  let kv = List.map (fun (v, a) -> I.eval_term env.ctx full (Attr (v, a))) keys in
  String.concat "" (List.map V.canonical kv)

(* ------------------------------------------------------------------ *)
(* Block helpers                                                       *)
(* ------------------------------------------------------------------ *)

(* Rows per governor probe: cheap enough that a cancel/deadline is still
   noticed promptly, large enough that the probe vanishes from per-row
   cost. *)
let block_rows = 256

(* [row @ env.outer] without the append when there is no outer context —
   the common case for top-level pipelines. *)
let full_of env (row : I.benv) =
  match env.outer with [] -> row | o -> row @ o

(* Composite hash key for a list of terms evaluated under [row @ outer],
   built into a caller-owned reusable buffer. Under three-valued logic a
   NULL key component can never satisfy an equality, so the row is
   excluded from matching ([None]); under two-valued logic NULL is an
   ordinary value. Value.canonical equates values that compare equal
   (Int 1 vs Float 1.0) and cannot collide otherwise. *)
let key_of_buf env buf (row : I.benv) terms =
  let full = full_of env row in
  Buffer.clear buf;
  let ok =
    match (I.conv env.ctx).Conventions.null_logic with
    | Conventions.Three_valued ->
        List.for_all
          (fun t ->
            let v = I.eval_term env.ctx full t in
            if V.is_null v then false
            else begin
              Buffer.add_string buf (V.canonical v);
              true
            end)
          terms
    | _ ->
        List.iter
          (fun t ->
            Buffer.add_string buf
              (V.canonical (I.eval_term env.ctx full t)))
          terms;
        true
  in
  if ok then Some (Buffer.contents buf) else None

(* Whole-tuple join keys: when a side's key terms are attribute references
   on one variable, [whole_var_attrs] returns that variable and the sorted
   attribute set. If the set covers the row's entire schema on BOTH sides
   of a join, the memoized [Tuple.key] is an equivalent composite key
   (injective up to [Tuple.equal] over canonical cells), so the per-row
   term evaluation disappears. Both sides must switch together — the two
   encodings differ. *)
let whole_var_attrs terms =
  match terms with
  | Attr (v, _) :: _ ->
      let rec attrs_of = function
        | [] -> Some []
        | Attr (v', a) :: tl when String.equal v' v ->
            Option.map (fun r -> a :: r) (attrs_of tl)
        | _ -> None
      in
      Option.map
        (fun attrs -> (v, List.sort_uniq compare attrs))
        (attrs_of terms)
  | _ -> None

let all_whole v attrs (rows : I.benv array) =
  Array.for_all
    (fun (row : I.benv) ->
      match row with
      | [ (v', tp) ] ->
          String.equal v' v
          && Schema.sorted_attrs (Tuple.schema tp) = attrs
      | _ -> false)
    rows

(* Filter an array of rows, probing the governor once per block. *)
let filter_block env pass (rows : I.benv array) : I.benv array =
  let g = gov env in
  let n = Array.length rows in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    Gov.tick g;
    let stop = min n (!i + block_rows) in
    while !i < stop do
      let row = rows.(!i) in
      if pass row then out := row :: !out;
      incr i
    done
  done;
  Array.of_list (List.rev !out)

(* Runs [f] inside the governor's collection scope (already entered):
   leaves it on every exit path and attributes errors to collection
   [name]. *)
let in_collection env name f =
  match Fun.protect ~finally:(fun () -> Gov.leave_collection (gov env)) f with
  | r -> r
  | exception (Eval_error e | Err.Guard_error e) ->
      raise (Eval_error (Err.in_collection name e))

(* Charges a collection's output rows, clipping it to what the row budget
   allows. *)
let charge_rows env tuples =
  if not (Gov.active (gov env)) then tuples
  else
    let n = List.length tuples in
    let allowed = Gov.charge_rows (gov env) n in
    if allowed >= n then tuples else I.take allowed tuples

(* ------------------------------------------------------------------ *)
(* Pipeline execution: benv-level operators                            *)
(* ------------------------------------------------------------------ *)

(* Every operator is a wrapper around an [_inner] worker: with stats on,
   [timed] brackets the worker with two clock reads and accumulates
   invocations / rows / inclusive time on the node's id; with stats off it
   is a single branch. Child ids use the same arithmetic as
   [Ir.child_ids] / [Explain]. Pipelines never deduplicate: each
   derivation is its own row, which the incremental maintenance hooks rely
   on to count derivations. Governor probes are amortized per block, hash
   keys go through a reused buffer or the memoized whole-tuple
   [Tuple.key], and grouping appends are O(1). *)
let timed env id count f =
  match env.stats with
  | None -> f ()
  | Some st ->
      let t0 = clock () in
      let r = f () in
      let t1 = clock () in
      let a = Ir.touch st id in
      a.Ir.a_invocations <- a.Ir.a_invocations + 1;
      a.Ir.a_rows <- a.Ir.a_rows + count r;
      a.Ir.a_incl_ns <- Int64.add a.Ir.a_incl_ns (Int64.sub t1 t0);
      r

(* one single-variable row per tuple of [r] *)
let bind_rows var r : I.benv array =
  Array.init (Relation.cardinality r) (fun i -> [ (var, Relation.get r i) ])

let rec exec_block env id (t : Ir.t) : I.benv array =
  timed env id Array.length (fun () -> exec_block_inner env id t)

and exec_block_inner env id (t : Ir.t) : I.benv array =
  (* Inside an indexed fixpoint rule, maximal component-free subtrees are
     memoized: round 1 computes them, every later round reuses the rows. *)
  match env.fix with
  | Some fc when Hashtbl.mem fc.fc_stable id -> (
      match Hashtbl.find_opt fc.fc_rows id with
      | Some rows -> rows
      | None ->
          let rows = exec_block_node env id t in
          Hashtbl.replace fc.fc_rows id rows;
          rows)
  | _ -> exec_block_node env id t

and exec_block_node env id (t : Ir.t) : I.benv array =
  match t with
  | One -> [| [] |]
  | Scan { var; rel; filters; _ } ->
      let rows = bind_rows var (I.source_rows env.ctx env.outer (Base rel)) in
      if filters = [] then rows
      else
        filter_block env
          (fun row -> List.for_all (pred_true env (full_of env row)) filters)
          rows
  | Subquery { var; plan } -> bind_rows var (exec_coll env (id + 1) plan)
  | Lateral { input; var; plan } ->
      let rows = exec_block env (id + 1) input in
      let plan_id = id + 1 + Ir.size input in
      let out = ref [] in
      Array.iter
        (fun (row : I.benv) ->
          let r =
            exec_coll { env with outer = row @ env.outer } plan_id plan
          in
          Relation.iter (fun tp -> out := ((var, tp) :: row) :: !out) r)
        rows;
      Array.of_list (List.rev !out)
  | Product { left; right } ->
      let l = exec_block env (id + 1) left in
      let r = exec_block env (id + 1 + Ir.size left) right in
      let nl = Array.length l and nr = Array.length r in
      if nl = 0 || nr = 0 then [||]
      else begin
        let out = Array.make (nl * nr) [] in
        for i = 0 to nl - 1 do
          let lr = l.(i) in
          for j = 0 to nr - 1 do
            out.((i * nr) + j) <- r.(j) @ lr
          done
        done;
        out
      end
  | Hash_join { left; right; keys }
    when (match env.fix with
         | Some fc -> Hashtbl.mem fc.fc_joins id
         | None -> false) -> (
      match env.fix with
      | Some fc ->
          exec_indexed_join env fc id left right keys
            (Hashtbl.find fc.fc_joins id)
      | None -> assert false)
  | Hash_join { left; right; keys } ->
      Gov.tick (gov env);
      let build = exec_block env (id + 1 + Ir.size left) right in
      let probe = exec_block env (id + 1) left in
      let inner_terms = List.map (fun k -> k.Ir.inner) keys in
      let outer_terms = List.map (fun k -> k.Ir.outer) keys in
      let fast =
        match (whole_var_attrs inner_terms, whole_var_attrs outer_terms) with
        | Some (iv, ia), Some (ov, oa)
          when ia = oa && all_whole iv ia build && all_whole ov oa probe ->
            true
        | _ -> false
      in
      let three_valued =
        match (I.conv env.ctx).Conventions.null_logic with
        | Conventions.Three_valued -> true
        | _ -> false
      in
      let fast_key (row : I.benv) =
        match row with
        | [ (_, tp) ] ->
            if three_valued && List.exists V.is_null (Tuple.values tp) then
              None
            else Some (Tuple.key tp)
        | _ -> None
      in
      let buf = Buffer.create 64 in
      let key_build rrow =
        if fast then fast_key rrow else key_of_buf env buf rrow inner_terms
      in
      let key_probe lrow =
        if fast then fast_key lrow else key_of_buf env buf lrow outer_terms
      in
      let tbl = Hashtbl.create (max 16 (Array.length build)) in
      Array.iter
        (fun rrow ->
          match key_build rrow with
          | Some k -> Hashtbl.add tbl k rrow
          | None -> ())
        build;
      let g = gov env in
      let n = Array.length probe in
      let out = ref [] in
      let matches = ref 0 in
      let i = ref 0 in
      while !i < n do
        Gov.tick g;
        let stop = min n (!i + block_rows) in
        while !i < stop do
          let lrow = probe.(!i) in
          (match key_probe lrow with
          | Some k ->
              List.iter
                (fun rrow ->
                  incr matches;
                  out := (rrow @ lrow) :: !out)
                (Hashtbl.find_all tbl k)
          | None -> ());
          incr i
        done
      done;
      with_actual env id (fun a ->
          a.Ir.a_build <- a.Ir.a_build + Array.length build;
          a.Ir.a_probe <- a.Ir.a_probe + Array.length probe;
          a.Ir.a_matches <- a.Ir.a_matches + !matches);
      Array.of_list (List.rev !out)
  | Filter { input; preds } ->
      filter_block env
        (fun row -> List.for_all (pred_true env (full_of env row)) preds)
        (exec_block env (id + 1) input)
  | Residual { input; conjs } ->
      filter_block env
        (fun row -> List.for_all (formula_true env (full_of env row)) conjs)
        (exec_block env (id + 1) input)
  | Semi { anti; input; sub; keys; residual; _ } ->
      Gov.tick (gov env);
      let sub_rows = exec_block env (id + 1 + Ir.size input) sub in
      let witness row candidates =
        List.exists
          (fun (srow : I.benv) ->
            List.for_all (pred_true env (srow @ row @ env.outer)) residual)
          candidates
      in
      let rows = exec_block env (id + 1) input in
      let kept =
        match keys with
        | [] ->
            let cands = Array.to_list sub_rows in
            filter_block env (fun row -> witness row cands <> anti) rows
        | _ ->
            let inner_terms = List.map (fun k -> k.Ir.inner) keys in
            let outer_terms = List.map (fun k -> k.Ir.outer) keys in
            let buf = Buffer.create 64 in
            let tbl = Hashtbl.create (max 16 (Array.length sub_rows)) in
            Array.iter
              (fun srow ->
                match key_of_buf env buf srow inner_terms with
                | Some k -> Hashtbl.add tbl k srow
                | None -> ())
              sub_rows;
            filter_block env
              (fun row ->
                let found =
                  match key_of_buf env buf row outer_terms with
                  | Some k -> witness row (Hashtbl.find_all tbl k)
                  | None -> false
                in
                found <> anti)
              rows
      in
      with_actual env id (fun a ->
          a.Ir.a_build <- a.Ir.a_build + Array.length sub_rows;
          a.Ir.a_probe <- a.Ir.a_probe + Array.length rows;
          a.Ir.a_matches <- a.Ir.a_matches + Array.length kept);
      kept
  | Resolve { input; binding; scope } ->
      Gov.tick (gov env);
      let rows = exec_block env (id + 1) input in
      Array.of_list
        (I.resolve_deferred env.ctx env.outer scope (Array.to_list rows)
           [ binding ])
  | Prune { input; keep } ->
      Array.map
        (fun (row : I.benv) ->
          List.filter (fun (v, _) -> List.mem v keep) row)
        (exec_block env (id + 1) input)
  | Append ts ->
      Array.concat
        (List.map2 (fun cid b -> exec_block env cid b) (Ir.child_ids id t) ts)

(* A hash join inside an indexed fixpoint rule with a stable [side]: that
   side's hash table is built once, kept in the rule's cache, and probed
   by each round with the side that reaches the __delta__ scan. When the
   stable side is the left one the roles swap, but output rows still
   concatenate right-rows before left-rows, so downstream attribute
   lookups see the usual layout; only row order can differ, which the
   set-level fixpoint ignores. *)
and exec_indexed_join env fc id left right keys side : I.benv array =
  Gov.tick (gov env);
  let inner_terms = List.map (fun k -> k.Ir.inner) keys in
  let outer_terms = List.map (fun k -> k.Ir.outer) keys in
  let lid = id + 1 and rid = id + 1 + Ir.size left in
  let build_id, build_plan, build_terms, probe_id, probe_plan, probe_terms =
    match side with
    | `Right -> (rid, right, inner_terms, lid, left, outer_terms)
    | `Left -> (lid, left, outer_terms, rid, right, inner_terms)
  in
  let buf = Buffer.create 64 in
  let tbl =
    match Hashtbl.find_opt fc.fc_tables id with
    | Some tbl -> tbl
    | None ->
        let rows = exec_block env build_id build_plan in
        let tbl = Hashtbl.create (max 16 (Array.length rows)) in
        Array.iter
          (fun row ->
            match key_of_buf env buf row build_terms with
            | Some k -> Hashtbl.add tbl k row
            | None -> ())
          rows;
        Hashtbl.replace fc.fc_tables id tbl;
        with_actual env id (fun a ->
            a.Ir.a_build <- a.Ir.a_build + Array.length rows);
        tbl
  in
  let probe = exec_block env probe_id probe_plan in
  let g = gov env in
  let n = Array.length probe in
  let out = ref [] in
  let matches = ref 0 in
  let i = ref 0 in
  while !i < n do
    Gov.tick g;
    let stop = min n (!i + block_rows) in
    while !i < stop do
      let prow = probe.(!i) in
      (match key_of_buf env buf prow probe_terms with
      | Some k ->
          List.iter
            (fun brow ->
              incr matches;
              out :=
                (match side with
                | `Right -> brow @ prow
                | `Left -> prow @ brow)
                :: !out)
            (Hashtbl.find_all tbl k)
      | None -> ());
      incr i
    done
  done;
  with_actual env id (fun a ->
      a.Ir.a_probe <- a.Ir.a_probe + n;
      a.Ir.a_matches <- a.Ir.a_matches + !matches);
  Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Disjuncts and collections                                           *)
(* ------------------------------------------------------------------ *)

(* [schema] is the head's, built once by the caller and shared by every
   emitted tuple and the relation collecting them. *)
and exec_disjunct env id (head : head) schema (d : Ir.disjunct_plan) :
    Tuple.t list =
  timed env id List.length (fun () -> exec_disjunct_inner env id head schema d)

and exec_disjunct_inner env id (head : head) schema (d : Ir.disjunct_plan) :
    Tuple.t list =
  let assign_term assigns a =
    match List.assoc_opt a assigns with
    | Some t -> t
    | None ->
        raise_kind (Err.Head_unassigned { head = head.head_name; attr = a })
  in
  let emit_group scope_vars post assigns (rep, group) =
    if
      List.for_all
        (fun f -> I.eval_gformula env.ctx ~rep ~group ~scope_vars f = B3.True)
        post
    then
      Some
        (Tuple.make schema
           (Array.of_list
              (List.map
                 (fun a ->
                   I.eval_gterm env.ctx ~rep ~group ~scope_vars
                     (assign_term assigns a))
                 head.head_attrs)))
    else None
  in
  match d with
  | Project { input; assigns } ->
      let rows = exec_block env (id + 1) input in
      Array.to_list
        (Array.map
           (fun (row : I.benv) ->
             let full = full_of env row in
             Tuple.make schema
               (Array.of_list
                  (List.map
                     (fun a ->
                       I.eval_term env.ctx full (assign_term assigns a))
                     head.head_attrs)))
           rows)
  | Aggregate { input; keys; scope_vars; post; assigns } ->
      let rows = exec_block env (id + 1) input in
      Gov.tick (gov env);
      let groups =
        if keys = [] then
          let full =
            Array.to_list (Array.map (fun r -> full_of env r) rows)
          in
          [ ((match full with [] -> env.outer | r :: _ -> r), full) ]
        else begin
          (* groups accumulate in reversed ref cells: O(1) append *)
          let tbl = Hashtbl.create (max 16 (Array.length rows / 4)) in
          let order = ref [] in
          Array.iter
            (fun (row : I.benv) ->
              let full = full_of env row in
              let k = group_key env full keys in
              match Hashtbl.find_opt tbl k with
              | Some cell -> cell := full :: !cell
              | None ->
                  let cell = ref [ full ] in
                  order := cell :: !order;
                  Hashtbl.replace tbl k cell)
            rows;
          List.rev_map
            (fun cell ->
              let group = List.rev !cell in
              (List.hd group, group))
            !order
        end
      in
      List.filter_map (emit_group scope_vars post assigns) groups

and exec_coll env id (p : Ir.coll_plan) : Relation.t =
  timed env id Relation.cardinality (fun () -> exec_coll_inner env id p)

and exec_coll_inner env id ({ head; disjuncts } as p : Ir.coll_plan) :
    Relation.t =
  let name = head.head_name in
  Gov.tick (gov env);
  if not (Gov.enter_collection (gov env)) then
    Relation.empty ~name head.head_attrs
  else
    in_collection env name (fun () ->
        let schema = Schema.make head.head_attrs in
        let tuples =
          List.concat
            (List.map2
               (fun did d -> exec_disjunct env did head schema d)
               (Ir.coll_child_ids id p) disjuncts)
        in
        let r = Relation.make ~name schema (charge_rows env tuples) in
        match (I.conv env.ctx).Conventions.collection with
        | Conventions.Set -> Relation.dedup r
        | Conventions.Bag -> r)

(* ------------------------------------------------------------------ *)
(* Recursive strata: hash-based fixpoints over plans                   *)
(* ------------------------------------------------------------------ *)

(* The delta-substitution helpers ([delta_name], [count_scans_coll],
   [subst_scan], [opaque_refs_coll], [seminaive_eligible]) live in
   [Arc_plan.Ir] so the incremental maintenance layer (Arc_ivm) shares
   them with the fixpoints below. *)
let delta_name = Ir.delta_name

(* Appends the wall-clock of one fixpoint round, begun at [t0], to every
   definition head of the stratum. *)
let record_round env (dps : (Ir.def_plan * int) list) t0 =
  let ns = Int64.sub (clock ()) t0 in
  List.iter
    (fun (_, id) ->
      with_actual env id (fun a -> a.Ir.a_rounds_ns <- ns :: a.Ir.a_rounds_ns))
    dps

(* Runs [f] as definition [id]'s share of a fixpoint round. The share's
   wall-clock joins the head's inclusive time, so the head covers its
   whole fixpoint; the part spent outside the plan nodes [ran] (the head
   itself, or the round's rule disjuncts) is the fixpoint's own time:
   seen-set probes, accumulator appends, round bookkeeping. *)
let fixpoint_share env id ran f =
  match env.stats with
  | None -> f ()
  | Some st ->
      let ran = List.sort_uniq compare ran in
      let inside () =
        List.fold_left
          (fun t n -> Int64.add t (Ir.incl_of st n))
          0L ran
      in
      let a = Ir.touch st id in
      let head0 = a.Ir.a_incl_ns and in0 = inside () and t0 = clock () in
      let r = f () in
      let ns = Int64.sub (clock ()) t0 in
      let own = Int64.sub ns (Int64.sub (inside ()) in0) in
      a.Ir.a_fix_ns <- Int64.add a.Ir.a_fix_ns (Int64.max 0L own);
      a.Ir.a_incl_ns <- Int64.add head0 ns;
      r

(* [tp] was not in [seen], and now is *)
let unseen seen tp =
  let k = Tuple.key tp in
  (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true)

(* The naive fixpoint re-runs every definition each round until none
   grows. [current] is a set, and dedup keeps it as the prefix of [next],
   so a round changed it iff [next] is larger. *)
let naive_fixpoint env (dps : (Ir.def_plan * int) list) =
  let ctx = env.ctx in
  let changed = ref true in
  let iterations = ref 0 in
  while !changed do
    incr iterations;
    Gov.tick (gov env);
    changed := false;
    if Gov.iteration_allowed (gov env) !iterations && not (Gov.stopped (gov env))
    then begin
      let t0 = clock () in
      List.iter
        (fun (dp, id) ->
          fixpoint_share env id [ id ] @@ fun () ->
          let n = dp.Ir.dname in
          let current = Option.get (I.idb_get ctx n) in
          let next =
            Relation.dedup
              (Relation.union current (exec_coll env id dp.Ir.dplan))
          in
          let delta = Relation.cardinality next - Relation.cardinality current in
          with_actual env id (fun a -> a.Ir.a_deltas <- delta :: a.Ir.a_deltas);
          if delta <> 0 then begin
            I.idb_set ctx n next;
            changed := true
          end)
        dps;
      record_round env dps t0
    end
  done;
  List.iter
    (fun (_, id) -> with_actual env id (fun a -> a.Ir.a_iterations <- !iterations))
    dps

(* The indexed seminaive fixpoint: each round evaluates only delta rules,
   and does so incrementally in three ways. One delta rule per
   component-scan occurrence, restricted to the single disjunct that
   contains the occurrence — the other disjuncts are independent of that
   delta and are skipped instead of re-run every round. Per-rule caches
   ([fix_cache]) memoize every component-free subtree and keep hash-join
   build tables alive across rounds, so the stable side of a delta join
   is built once and only probed thereafter. And a per-definition seen-set
   of canonical tuple keys replaces the per-round dedup/minus against the
   accumulated relation, so per-round cost tracks the delta, not the
   closure: the union that accumulates a round's delta appends it in
   place. Budgets charge a tick plus a row charge per rule run and check
   iterations once per round. *)
let indexed_seminaive_fixpoint env component (dps : (Ir.def_plan * int) list)
    =
  let ctx = env.ctx in
  let banned = component @ List.map delta_name component in
  let t0 = clock () in
  let defs =
    List.map
      (fun (dp, id) ->
        fixpoint_share env id [ id ] @@ fun () ->
        let n = dp.Ir.dname in
        let head = dp.Ir.dplan.head in
        (* the seen-set starts from the definition's current value, so the
           first delta is the seed minus the start (the whole seed when
           starting from empty) *)
        let start = Option.get (I.idb_get ctx n) in
        let seed = exec_coll env id dp.Ir.dplan in
        let seen =
          Hashtbl.create
            (max 64
               (4 * (Relation.cardinality start + Relation.cardinality seed)))
        in
        Relation.iter (fun tp -> Hashtbl.replace seen (Tuple.key tp) ()) start;
        let delta = Relation.select (unseen seen) seed in
        I.idb_set ctx n (Relation.union start delta);
        I.idb_set ctx (delta_name n) delta;
        with_actual env id (fun a ->
            a.Ir.a_deltas <- Relation.cardinality delta :: a.Ir.a_deltas);
        let dids = Ir.coll_child_ids id dp.Ir.dplan in
        let occurrences = Ir.count_scans_coll component dp.Ir.dplan in
        let rules =
          List.init occurrences (fun i ->
              let subst = (Ir.subst_scan component i dp.Ir.dplan).disjuncts in
              let d = Ir.occurrence_disjunct component i dp.Ir.dplan in
              let sd = List.nth subst d and did = List.nth dids d in
              (sd, did, make_fix_cache banned did sd))
        in
        (n, id, head, Schema.make head.head_attrs, rules, seen))
      dps
  in
  record_round env dps t0;
  let iterations = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr iterations;
    Gov.tick (gov env);
    if
      (not (Gov.iteration_allowed (gov env) !iterations))
      || Gov.stopped (gov env)
    then continue_ := false
    else begin
      let t0 = clock () in
      let new_deltas =
        List.map
          (fun (n, id, head, schema, rules, seen) ->
            fixpoint_share env id (List.map (fun (_, did, _) -> did) rules)
            @@ fun () ->
            let fresh = ref [] in
            List.iter
              (fun (sd, did, fc) ->
                Gov.tick (gov env);
                if Gov.enter_collection (gov env) then
                  in_collection env n (fun () ->
                      charge_rows env
                        (exec_disjunct { env with fix = Some fc } did head
                           schema sd))
                  |> List.iter (fun tp ->
                         if unseen seen tp then fresh := tp :: !fresh))
              rules;
            (n, id, Relation.make ~name:n schema (List.rev !fresh)))
          defs
      in
      List.iter
        (fun (n, id, fresh) ->
          fixpoint_share env id [] @@ fun () ->
          let card = Relation.cardinality fresh in
          with_actual env id (fun a -> a.Ir.a_deltas <- card :: a.Ir.a_deltas);
          (* [fresh] is disjoint from the accumulated relation by the
             seen-set, so a plain bag union keeps it a set *)
          I.idb_set ctx n
            (Relation.union (Option.get (I.idb_get ctx n)) fresh);
          I.idb_set ctx (delta_name n) fresh)
        new_deltas;
      record_round env dps t0;
      if List.for_all (fun (_, _, f) -> Relation.is_empty f) new_deltas then
        continue_ := false
    end
  done;
  List.iter
    (fun (_, id, _, _, _, _) ->
      with_actual env id (fun a -> a.Ir.a_iterations <- !iterations))
    defs;
  List.iter (fun n -> I.idb_remove ctx (delta_name n)) component

(* The fixpoint a recursive stratum runs under the context's strategy. *)
let fixpoint_kind ctx (dps : Ir.def_plan list) =
  match I.strategy ctx with
  | Eval.Seminaive
    when Ir.seminaive_eligible (List.map (fun d -> d.Ir.dname) dps) dps ->
      `Seminaive
  | _ -> `Naive

(* Runs a recursive stratum's fixpoint from its definitions' current IDB
   values. [base] is the id of the stratum's first definition;
   consecutive definitions follow at offsets of [Ir.size_coll], mirroring
   [Ir.program_ids]. *)
let run_fixpoint env base (dps : Ir.def_plan list) =
  let component = List.map (fun d -> d.Ir.dname) dps in
  let dps_ids =
    List.rev
      (fst
         (List.fold_left
            (fun (acc, next) dp ->
              ((dp, next) :: acc, next + Ir.size_coll dp.Ir.dplan))
            ([], base) dps))
  in
  (* stratification check, as in the reference *)
  List.iter
    (fun dp ->
      List.iter
        (fun (m, negative) ->
          if negative && List.mem m component then
            raise_kind (Err.Unstratifiable { name = dp.Ir.dname; dep = m }))
        (Depend.collection_deps dp.Ir.dcoll))
    dps;
  match fixpoint_kind env.ctx dps with
  | `Seminaive -> indexed_seminaive_fixpoint env component dps_ids
  | `Naive -> naive_fixpoint env dps_ids

(* Install empty component relations, then run the fixpoint from them. *)
let exec_stratum env base (s : Ir.stratum) =
  let ctx = env.ctx in
  match s with
  | Ir.Nonrecursive dp -> I.idb_set ctx dp.dname (exec_coll env base dp.dplan)
  | Ir.Recursive dps ->
      List.iter
        (fun dp ->
          I.idb_set ctx dp.Ir.dname
            (Relation.empty ~name:dp.Ir.dname dp.Ir.dplan.head.head_attrs))
        dps;
      run_fixpoint env base dps

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* The AST-level front of [compile]: magic sets, validation and the
   lowering environment. *)
let front ?conv ?externals ?strategy ?guard ~db (prog : program) =
  (* goal-directed recursion: restrict recursive definitions to the
     constants the main query demands (AST-level, before validation, so
     the magic relation is prepared and stratified like any other def) *)
  let prog, magic_changed = Opt.magic_sets prog in
  let ctx, safe = I.prepare ?conv ?externals ?strategy ?guard ~db prog in
  let lenv =
    Lower.env_of_db ~db ~defs:(List.map (fun d -> d.def_name) safe)
  in
  (prog, magic_changed, ctx, safe, lenv)

(* Lower and optimize a program against a database: returns the context
   (with abstracts registered, IDB empty), the raw and optimized plans, and
   the per-pass change report. *)
let compile ?conv ?externals ?strategy ?guard ~db (prog : program) =
  let prog, magic_changed, ctx, safe, lenv =
    front ?conv ?externals ?strategy ?guard ~db prog
  in
  let raw =
    try Lower.lower_program lenv ~safe prog
    with Err.Guard_error e -> raise (Eval_error e)
  in
  let optimized, report = Opt.optimize lenv raw in
  let unnested =
    List.exists Decorrelate.fired (snd (Lower.decorrelate lenv prog))
  in
  ( ctx,
    raw,
    optimized,
    ("magic-sets", magic_changed)
    :: ("decorrelate-aggregates", unnested)
    :: report )

let decorrelation ?conv ?externals ~db (prog : program) =
  let prog, _, _, _, lenv = front ?conv ?externals ~db prog in
  Lower.decorrelate lenv prog

let exec_program ?stats ctx (pp : Ir.program_plan) : Eval.outcome =
  let env = { ctx; outer = []; stats; fix = None } in
  let def_ids, main_id = Ir.program_ids pp in
  let base = function
    | Ir.Nonrecursive dp | Ir.Recursive (dp :: _) ->
        List.assoc dp.Ir.dname def_ids
    | Ir.Recursive [] -> 0
  in
  try
    List.iter (fun s -> exec_stratum env (base s) s) pp.strata;
    match pp.main with
    | Ir.Main_coll p -> Eval.Rows (exec_coll env (Option.get main_id) p)
    | Ir.Main_sentence f -> Eval.Truth (I.eval_formula ctx [] f)
  with
  | Err.Guard_error e -> raise (Eval_error e)
  | V.Type_error m -> raise (Eval_error { Err.kind = Err.Msg ("type error: " ^ m); context = [] })

let run ?conv ?externals ?strategy ?guard ~db (prog : program) =
  try
    let ctx, _, optimized, _ =
      compile ?conv ?externals ?strategy ?guard ~db prog
    in
    exec_program ctx optimized
  with V.Type_error m -> raise (Eval_error { Err.kind = Err.Msg ("type error: " ^ m); context = [] })

let run_rows ?conv ?externals ?strategy ?guard ~db prog =
  match run ?conv ?externals ?strategy ?guard ~db prog with
  | Eval.Rows r -> r
  | Eval.Truth _ ->
      raise_kind (Err.Msg "expected a collection result, got a sentence")

let run_truth ?conv ?externals ?strategy ?guard ~db prog =
  match run ?conv ?externals ?strategy ?guard ~db prog with
  | Eval.Truth t -> t
  | Eval.Rows _ ->
      raise_kind (Err.Msg "expected a sentence result, got a collection")

(* ------------------------------------------------------------------ *)
(* Incremental-maintenance hooks (Arc_ivm)                             *)
(* ------------------------------------------------------------------ *)

(* The maintenance layer differentiates pipelines and recomputes fallback
   strata itself; it needs the raw operators on an explicit context, with
   stats off (node ids are irrelevant without a stats table). *)

let hook_env ctx = { ctx; outer = []; stats = None; fix = None }

let exec_pipeline ctx (t : Ir.t) : I.benv list =
  Array.to_list (exec_block (hook_env ctx) 0 t)

let exec_collection ctx (p : Ir.coll_plan) : Relation.t =
  exec_coll (hook_env ctx) 0 p

let exec_stratum_plan ctx (s : Ir.stratum) : unit =
  exec_stratum (hook_env ctx) 0 s

let resume_stratum_plan ctx (dps : Ir.def_plan list) : unit =
  run_fixpoint (hook_env ctx) 0 dps

(* ------------------------------------------------------------------ *)
(* Metrics export                                                      *)
(* ------------------------------------------------------------------ *)

module Metrics = Arc_obs.Metrics
module Obs = Arc_obs.Obs
module Explain = Arc_plan.Explain

(* Aggregates a run's per-node actuals into operator-level series: totals
   as counters, per-node distributions as histograms. This is what
   [arc eval --profile] prints and what [--metrics-out] exports. *)
let export_stats (m : Metrics.t) (pp : Ir.program_plan) (stats : Ir.stats) =
  List.iter
    (fun ni ->
      match ni.Explain.ni_actual with
      | None -> ()
      | Some a ->
          let labels = [ ("op", ni.Explain.ni_op) ] in
          Metrics.inc m ~labels ~by:a.Ir.a_invocations
            "arc_node_invocations_total";
          Metrics.inc m ~labels ~by:a.Ir.a_rows "arc_node_rows_total";
          Metrics.observe m ~labels "arc_node_excl_ns"
            (Int64.to_float ni.Explain.ni_excl_ns);
          Metrics.observe m ~labels "arc_node_rows"
            (Float.of_int a.Ir.a_rows);
          if a.Ir.a_iterations > 0 then
            Metrics.inc m ~labels ~by:(Int64.to_int a.Ir.a_fix_ns)
              "arc_fixpoint_ns_total";
          (match ni.Explain.ni_q with
          | Some q -> Metrics.observe m ~labels "arc_node_q_error" q
          | None -> ()))
    (Explain.analyze_info pp ~stats)

(* Renders a run's per-node actuals as spans (see exec.mli). A span
   aggregates every invocation of its node, so it has no real start:
   [span] lays its children back to back from its own start and widens
   its duration to cover them (seminaive delta rules run a head's
   disjuncts outside the head). Spans are built as placers awaiting their
   parent and start; ids are preorder, so parents precede children. *)
let spans_of_stats ctx (pp : Ir.program_plan) (stats : Ir.stats) =
  let next_id = ref 0 in
  let rec lay parent start = function
    | [] -> []
    | place :: rest ->
        let sp = place parent start in
        sp :: lay parent (Int64.add start sp.Obs.duration_ns) rest
  in
  let span name attrs own kids parent start =
    let id = !next_id in
    incr next_id;
    let children = lay (Some id) start kids in
    let sum =
      List.fold_left (fun t c -> Int64.add t c.Obs.duration_ns) 0L children
    in
    let duration_ns = max own sum in
    { Obs.id; parent; name; start_ns = start; duration_ns; attrs; children }
  in
  let infos = Explain.analyze_info pp ~stats in
  let kids_of = Hashtbl.create 64 in
  List.iter
    (fun ni ->
      Option.iter (fun p -> Hashtbl.add kids_of p ni) ni.Explain.ni_parent)
    infos;
  let rec node ni =
    Option.map
      (fun a ->
        let name, hash =
          match (ni.Explain.ni_op, ni.Explain.ni_head) with
          | "union", Some head when a.Ir.a_iterations > 0 ->
              ( "collection:" ^ head,
                [ ("fixpoint_ns", Obs.Int (Int64.to_int a.Ir.a_fix_ns)) ] )
          | "union", Some head -> ("collection:" ^ head, [])
          | ("hash_join" | "semi_join" | "anti_join" as op), _ ->
              ( op,
                [
                  ("build", Obs.Int a.Ir.a_build);
                  ("probe", Obs.Int a.Ir.a_probe);
                  ("matches", Obs.Int a.Ir.a_matches);
                ] )
          | op, _ -> (op, [])
        in
        span name
          (("rows", Obs.Int a.Ir.a_rows)
          :: ("invocations", Obs.Int a.Ir.a_invocations)
          :: hash)
          a.Ir.a_incl_ns
          (List.filter_map node
             (List.rev (Hashtbl.find_all kids_of ni.Explain.ni_id))))
      ni.Explain.ni_actual
  in
  let def_ids, main_id = Ir.program_ids pp in
  let head id = node (List.find (fun ni -> ni.Explain.ni_id = id) infos) in
  let def dp = Option.to_list (head (List.assoc dp.Ir.dname def_ids)) in
  let fixpoint dps =
    let heads =
      List.filter_map
        (fun dp ->
          Option.map
            (fun a -> (dp.Ir.dname, List.rev a.Ir.a_deltas, a))
            (Ir.actual_of stats (List.assoc dp.Ir.dname def_ids)))
        dps
    in
    match heads with
    | [] -> []
    | (_, _, a) :: _ ->
        let kind = fixpoint_kind ctx dps in
        let round i ns =
          span
            (if i = 0 && kind = `Seminaive then "seed" else "iteration")
            (List.filter_map
               (fun (n, deltas, _) ->
                 Option.map
                   (fun d -> ("delta:" ^ n, Obs.Int d))
                   (List.nth_opt deltas i))
               heads)
            ns []
        in
        [
          span
            (if kind = `Seminaive then "fixpoint:seminaive"
             else "fixpoint:naive")
            [
              ( "stratum",
                Obs.Str
                  (String.concat "," (List.map (fun dp -> dp.Ir.dname) dps)) );
              ("iterations", Obs.Int a.Ir.a_iterations);
            ]
            0L
            (List.mapi round (List.rev a.Ir.a_rounds_ns));
        ]
  in
  lay None 0L
    (List.concat_map
       (function
         | Ir.Nonrecursive dp -> def dp
         | Ir.Recursive dps -> fixpoint dps @ List.concat_map def dps)
       pp.strata
    @ Option.to_list (Option.bind main_id head))
