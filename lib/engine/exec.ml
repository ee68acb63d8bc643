open Arc_core.Ast
module V = Arc_value.Value
module B3 = Arc_value.Bool3
module Conventions = Arc_value.Conventions
module Relation = Arc_relation.Relation
module Tuple = Arc_relation.Tuple
module Schema = Arc_relation.Schema
module Gov = Arc_guard.Gov
module Err = Arc_guard.Error
module Depend = Arc_core.Depend
module Ir = Arc_plan.Ir
module Lower = Arc_plan.Lower
module Opt = Arc_plan.Opt
module I = Eval.Internal

(* The physical engine: executes the Arc_plan IR with hash-based join,
   semi/anti-join, aggregation and deduplication operators over
   positional rows ([Row]). Terms, predicates and keys compile once per
   plan node into closures with the reference's semantics; formulas,
   governed scans, deferred resolution and every error message come from
   Eval.Internal, so the two engines share one notion of what a row means
   and can only differ in what they enumerate. *)

exception Eval_error = Eval.Eval_error

let raise_kind kind = raise (Eval_error (Err.make kind))

(* ------------------------------------------------------------------ *)
(* Fixpoint index caches                                               *)
(* ------------------------------------------------------------------ *)

(* Persistent per-delta-rule state for a seminaive stratum's fixpoint.
   [fc_stable] marks the maximal subtrees of the rule's plan that scan
   neither the recursive component nor its __delta__ relations: their
   result cannot change between rounds, so [fc_rows] memoizes it on first
   execution. [fc_joins] marks hash joins with such a stable subtree on
   one side; [fc_tables] keeps the hash table built from that side alive
   across rounds, so each round only probes it with the current delta. *)
type fix_cache = {
  fc_stable : (int, unit) Hashtbl.t;
  fc_rows : (int, Row.t array) Hashtbl.t;
  fc_joins : (int, [ `Left | `Right ]) Hashtbl.t;
  fc_tables : (int, Row.t Tuple.Key_tbl.t) Hashtbl.t;
}

(* A subtree is stable when no scan under it resolves a [banned] relation
   (the component and its deltas). Correlated or context-dependent nodes
   (laterals, subqueries, deferred resolution) are conservatively treated
   as unstable — they may evaluate under a different outer row each time.
   Residual formulas and filters cannot reference the component at all
   here: a stratum with such opaque references fails
   [Ir.seminaive_eligible], and its rules run without a cache. *)
let rec stable_subtree banned (n : Ir.node) =
  match n with
  | Ir.T (Ir.Scan { rel; _ }) -> not (List.mem rel banned)
  | Ir.T (Ir.Lateral _ | Ir.Subquery _ | Ir.Resolve _) | Ir.D _ | Ir.C _ ->
      false
  | Ir.T _ -> List.for_all (stable_subtree banned) (Ir.children n)

(* Mark the maximal stable subtrees (and the hash joins that should keep a
   persistent build table) of one delta rule, numbered with
   [Ir.node_child_ids] as the executor numbers them. Inner plans of
   laterals and subqueries are never marked: their nodes execute under
   per-row outer environments, where memoized results would be wrong. *)
let rec mark_fix fc banned id (n : Ir.node) =
  if stable_subtree banned n then (
    match n with Ir.T Ir.One -> () | _ -> Hashtbl.replace fc.fc_stable id ())
  else
    let kids = List.combine (Ir.node_child_ids id n) (Ir.children n) in
    let kids =
      match (n, kids) with
      | Ir.T (Ir.Hash_join _), [ l; r ] ->
          if stable_subtree banned (snd r) then (
            Hashtbl.replace fc.fc_joins id `Right;
            [ l ])
          else if stable_subtree banned (snd l) then (
            Hashtbl.replace fc.fc_joins id `Left;
            [ r ])
          else kids
      | _ -> List.filter (function _, Ir.C _ -> false | _ -> true) kids
    in
    List.iter (fun (cid, c) -> mark_fix fc banned cid c) kids

let make_fix_cache banned did (d : Ir.disjunct_plan) =
  let fc =
    {
      fc_stable = Hashtbl.create 16;
      fc_rows = Hashtbl.create 16;
      fc_joins = Hashtbl.create 8;
      fc_tables = Hashtbl.create 8;
    }
  in
  mark_fix fc banned did (Ir.D d);
  fc

(* [stats] is the EXPLAIN ANALYZE sink: when present, every operator
   records per-node actuals keyed by the stable ids of [Ir.program_ids]
   (preorder under [Ir.children], the one definition of child order).
   When absent the executor takes a branch per node and nothing else.
   [fix] is only set while executing a delta rule of a seminaive
   stratum's fixpoint. [outer] is the enclosing by-name environment: a
   lateral's input row, empty for top-level pipelines. *)
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

(* ------------------------------------------------------------------ *)
(* Block helpers                                                       *)
(* ------------------------------------------------------------------ *)

(* Rows per governor probe: cheap enough that a cancel/deadline is still
   noticed promptly, large enough that the probe vanishes from per-row
   cost. *)
let block_rows = 256

(* The array of a list consed in reverse, [n] its length: the rows a loop
   emitted onto [l], in emission order, without reversing the list. *)
let of_rev_list n = function
  | [] -> [||]
  | x :: _ as l ->
      let a = Array.make n x in
      List.iteri (fun i y -> a.(n - 1 - i) <- y) l;
      a

(* A hash table of [rows] by their [key]s ([Row.key]); rows without a
   key are left out. *)
let build_table env (key : V.t array option Row.fn) (rows : Row.t array) =
  let tbl = Tuple.Key_tbl.create (max 16 (Array.length rows)) in
  Array.iter
    (fun row ->
      match key env.outer row with
      | Some k -> Tuple.Key_tbl.add tbl k row
      | None -> ())
    rows;
  tbl

(* Probes [tbl] with the [key] of each [probe] row, emitting [join prow
   brow] per match and probing the governor once per block. Returns the
   joined rows and the match count. *)
let probe_table env tbl key (probe : Row.t array) join =
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
      (match key env.outer prow with
      | Some k ->
          List.iter
            (fun brow ->
              incr matches;
              out := join prow brow :: !out)
            (Tuple.Key_tbl.find_all tbl k)
      | None -> ());
      incr i
    done
  done;
  (of_rev_list !matches !out, !matches)

(* Filter an array, probing the governor once per block. *)
let filter_block env pass (rows : 'a array) : 'a array =
  let g = gov env in
  let n = Array.length rows in
  let out = ref [] and kept = ref 0 in
  let i = ref 0 in
  while !i < n do
    Gov.tick g;
    let stop = min n (!i + block_rows) in
    while !i < stop do
      let row = rows.(!i) in
      if pass row then (
        out := row :: !out;
        incr kept);
      incr i
    done
  done;
  if !kept = n then rows else of_rev_list !kept !out

(* Runs [f] inside the governor's collection scope (already entered):
   leaves it on every exit path and attributes errors to collection
   [name]. *)
let in_collection env name f =
  match Fun.protect ~finally:(fun () -> Gov.leave_collection (gov env)) f with
  | r -> r
  | exception Eval_error e ->
      raise (Eval_error (Err.in_collection name e))

(* A collection's output rows, charged and clipped to the row budget. *)
let charge_rows env rows =
  let n = Array.length rows in
  let allowed = Gov.charge_rows (gov env) n in
  if allowed = n then rows else Array.sub rows 0 allowed

(* ------------------------------------------------------------------ *)
(* Pipeline compilation and execution                                  *)
(* ------------------------------------------------------------------ *)

(* A plan compiles once into runners: every node fixes the layout of its
   rows ([Row]) and compiles its terms, predicates and keys against its
   inputs' layouts, so the runners read bound attributes by (slot,
   column) and never by name. Rows convert to by-name environments only
   where the reference evaluator takes over: residual formulas, deferred
   resolution and a lateral's outer environment.

   Every runner is wrapped by [timed]: with stats on, it brackets the
   node with two clock reads and accumulates invocations / rows /
   inclusive time on the node's id; with stats off it is a single branch.
   Child ids come from [Ir.node_child_ids], as in [Explain].
   Pipelines never deduplicate: each derivation is its own row, which the
   incremental maintenance hooks rely on to count derivations. Governor
   probes are amortized per block, hash keys are value arrays, and
   grouping appends are O(1). *)
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

(* one single-slot row per tuple of [r] *)
let bind_rows r : Row.t array =
  Array.init (Relation.cardinality r) (fun i -> [| Relation.get r i |])

(* Inside an indexed fixpoint rule, maximal component-free subtrees are
   memoized: round 1 computes them, every later round reuses the rows. *)
let memoized env id node =
  match env.fix with
  | Some fc when Hashtbl.mem fc.fc_stable id -> (
      match Hashtbl.find_opt fc.fc_rows id with
      | Some rows -> rows
      | None ->
          let rows = node env in
          Hashtbl.replace fc.fc_rows id rows;
          rows)
  | _ -> node env

(* A compiled pipeline: the layout of its rows and its runner. *)
type block = { layout : Row.layout; run : env -> Row.t array }

(* A disjunct's head compiled against its input's layout, for the
   executor and for incremental maintenance alike. A head attribute
   without an assignment fails on the first row that needs it, as in the
   reference. *)
let head_fns (head : head) compile assigns =
  Array.of_list
    (List.map
       (fun a ->
         match List.assoc_opt a assigns with
         | Some t -> compile t
         | None ->
             fun _ _ ->
               raise_kind
                 (Err.Head_unassigned { head = head.head_name; attr = a }))
       head.head_attrs)

let project_head ctx head schema layout assigns : Tuple.t Row.fn =
  let fs = head_fns head (Row.term ctx layout) assigns in
  fun outer row ->
    Tuple.make (Lazy.force schema) (Array.map (fun f -> f outer row) fs)

(* An empty group emits only under γ∅, whose one group is the whole,
   possibly empty, input. *)
let aggregate_head ctx head schema layout ~keys scope_vars post assigns :
    Tuple.t option Row.gfn =
  let post = List.map (Row.gformula ctx layout scope_vars) post in
  let fs = head_fns head (Row.gterm ctx layout scope_vars) assigns in
  fun outer group ->
    if
      (keys <> [] && group = [])
      || not (List.for_all (fun f -> f outer group = B3.True) post)
    then None
    else
      let schema = Lazy.force schema in
      Some (Tuple.make schema (Array.map (fun f -> f outer group) fs))

let key_terms keys =
  ( List.map (fun k -> k.Ir.inner) keys,
    List.map (fun k -> k.Ir.outer) keys )

let rec compile_block ctx id (t : Ir.t) : block =
  let layout, node = compile_node ctx id t in
  {
    layout;
    run = (fun env -> timed env id Array.length (fun () -> memoized env id node));
  }

(* A node's layout follows [Ir.bound_vars]: a join's rows are its right
   row then its left row, a lateral or resolved binding comes first, a
   prune keeps [keep]'s order, and every branch of an append is permuted
   to the order in which its branches first bind each variable. *)
and compile_node ctx id (t : Ir.t) : Row.layout * (env -> Row.t array) =
  let kid = Array.of_list (Ir.node_child_ids id (Ir.T t)) in
  match t with
  | One -> ([||], fun _ -> [| [||] |])
  | Scan { var; rel; filters; _ } ->
      let layout = [| var |] in
      let pass = Row.preds ctx layout filters in
      ( layout,
        fun env ->
          let r = I.source_rows env.ctx env.outer (Base rel) in
          let n = Relation.cardinality r in
          if filters = [] || n = 0 then bind_rows r
          else
            (* the predicates see each tuple through one scratch row;
               only passing tuples get a row of their own *)
            let scratch = [| Relation.get r 0 |] in
            Array.map
              (fun tp -> [| tp |])
              (filter_block env
                 (fun tp ->
                   scratch.(0) <- tp;
                   pass env.outer scratch)
                 (Array.init n (Relation.get r))) )
  | Subquery { var; plan } ->
      let coll = compile_coll ctx kid.(0) plan in
      ([| var |], fun env -> bind_rows (coll env))
  | Lateral { input; var; plan } ->
      let inb = compile_block ctx kid.(0) input in
      let coll = compile_coll ctx kid.(1) plan in
      ( Array.append [| var |] inb.layout,
        fun env ->
          Array.concat
            (List.map
               (fun row ->
                 let outer = Row.to_benv ~outer:env.outer inb.layout row in
                 let r = coll { env with outer } in
                 Array.init (Relation.cardinality r) (fun i ->
                     Row.cons (Relation.get r i) row))
               (Array.to_list (inb.run env))) )
  | Product { left; right } ->
      let lb = compile_block ctx kid.(0) left in
      let rb = compile_block ctx kid.(1) right in
      ( Array.append rb.layout lb.layout,
        fun env ->
          let l = lb.run env in
          let r = rb.run env in
          let nr = Array.length r in
          Array.init
            (Array.length l * nr)
            (fun k -> Array.append r.(k mod nr) l.(k / nr)) )
  | Hash_join { left; right; keys } ->
      let lb = compile_block ctx kid.(0) left in
      let rb = compile_block ctx kid.(1) right in
      let inner_terms, outer_terms = key_terms keys in
      let inner_key = Row.key ctx rb.layout inner_terms in
      let outer_key = Row.key ctx lb.layout outer_terms in
      ( Array.append rb.layout lb.layout,
        fun env ->
          match env.fix with
          | Some fc when Hashtbl.mem fc.fc_joins id ->
              indexed_join env fc id lb rb inner_key outer_key
                (Hashtbl.find fc.fc_joins id)
          | _ ->
              Gov.tick (gov env);
              let build = rb.run env in
              let probe = lb.run env in
              let tbl = build_table env inner_key build in
              let out, matches =
                probe_table env tbl outer_key probe (fun lrow rrow ->
                    Array.append rrow lrow)
              in
              with_actual env id (fun a ->
                  a.Ir.a_build <- a.Ir.a_build + Array.length build;
                  a.Ir.a_probe <- a.Ir.a_probe + Array.length probe;
                  a.Ir.a_matches <- a.Ir.a_matches + matches);
              out )
  | Filter { input; preds } ->
      let inb = compile_block ctx kid.(0) input in
      let pass = Row.preds ctx inb.layout preds in
      (inb.layout, fun env -> filter_block env (pass env.outer) (inb.run env))
  | Residual { input; conjs } ->
      let inb = compile_block ctx kid.(0) input in
      let pass = Row.formulas ctx inb.layout conjs in
      (inb.layout, fun env -> filter_block env (pass env.outer) (inb.run env))
  | Semi { anti; input; sub; keys; residual; _ } ->
      let inb = compile_block ctx kid.(0) input in
      let sb = compile_block ctx kid.(1) sub in
      (* residual predicates see a candidate's row before the input row *)
      let residual_pass =
        Row.preds ctx (Array.append sb.layout inb.layout) residual
      in
      let inner_terms, outer_terms = key_terms keys in
      let inner_key = Row.key ctx sb.layout inner_terms in
      let outer_key = Row.key ctx inb.layout outer_terms in
      ( inb.layout,
        fun env ->
          Gov.tick (gov env);
          let sub_rows = sb.run env in
          let witness row candidates =
            if residual = [] then candidates <> []
            else
              List.exists
                (fun srow -> residual_pass env.outer (Array.append srow row))
                candidates
          in
          let rows = inb.run env in
          let kept =
            match keys with
            | [] ->
                let cands = Array.to_list sub_rows in
                filter_block env (fun row -> witness row cands <> anti) rows
            | _ ->
                let tbl = build_table env inner_key sub_rows in
                filter_block env
                  (fun row ->
                    let found =
                      match outer_key env.outer row with
                      | Some k -> witness row (Tuple.Key_tbl.find_all tbl k)
                      | None -> false
                    in
                    found <> anti)
                  rows
          in
          with_actual env id (fun a ->
              a.Ir.a_build <- a.Ir.a_build + Array.length sub_rows;
              a.Ir.a_probe <- a.Ir.a_probe + Array.length rows;
              a.Ir.a_matches <- a.Ir.a_matches + Array.length kept);
          kept )
  | Resolve { input; binding; scope } ->
      let inb = compile_block ctx kid.(0) input in
      let layout = Array.append [| binding.var |] inb.layout in
      ( layout,
        fun env ->
          Gov.tick (gov env);
          let rows = inb.run env in
          Array.of_list
            (List.map (Row.of_benv layout)
               (I.resolve_deferred env.ctx env.outer scope
                  (List.map (Row.to_benv inb.layout) (Array.to_list rows))
                  [ binding ])) )
  | Prune { input; keep } ->
      let inb = compile_block ctx kid.(0) input in
      let layout =
        Array.of_list
          (List.filter (fun v -> Row.slot inb.layout v <> None) keep)
      in
      ( layout,
        match Row.permutation ~source:inb.layout ~target:layout with
        | None -> inb.run
        | Some perm -> fun env -> Array.map (Row.permute perm) (inb.run env) )
  | Append ts ->
      let bs = List.mapi (fun i -> compile_block ctx kid.(i)) ts in
      let layout = Row.union (List.map (fun b -> b.layout) bs) in
      let runs =
        List.map
          (fun b ->
            match Row.permutation ~source:b.layout ~target:layout with
            | None -> b.run
            | Some perm -> fun env -> Array.map (Row.permute perm) (b.run env))
          bs
      in
      (layout, fun env -> Array.concat (List.map (fun run -> run env) runs))

(* A hash join inside an indexed fixpoint rule with a stable [side]: that
   side's hash table is built once, kept in the rule's cache, and probed
   by each round with the side that reaches the __delta__ scan. When the
   stable side is the left one the roles swap, but output rows still put
   the right row before the left one: the node's layout. Only row order
   can differ, which the set-level fixpoint ignores. *)
and indexed_join env fc id lb rb inner_key outer_key side : Row.t array =
  Gov.tick (gov env);
  let build, build_key, probe, probe_key, join =
    match side with
    | `Right ->
        (rb, inner_key, lb, outer_key, fun prow brow -> Array.append brow prow)
    | `Left ->
        (lb, outer_key, rb, inner_key, fun prow brow -> Array.append prow brow)
  in
  let tbl =
    match Hashtbl.find_opt fc.fc_tables id with
    | Some tbl -> tbl
    | None ->
        let rows = build.run env in
        let tbl = build_table env build_key rows in
        Hashtbl.replace fc.fc_tables id tbl;
        with_actual env id (fun a ->
            a.Ir.a_build <- a.Ir.a_build + Array.length rows);
        tbl
  in
  let probe = probe.run env in
  let out, matches = probe_table env tbl probe_key probe join in
  with_actual env id (fun a ->
      a.Ir.a_probe <- a.Ir.a_probe + Array.length probe;
      a.Ir.a_matches <- a.Ir.a_matches + matches);
  out

(* ------------------------------------------------------------------ *)
(* Disjuncts and collections                                           *)
(* ------------------------------------------------------------------ *)

(* [schema] is the head's, built once and shared by every emitted tuple
   and the relation collecting them. *)
and compile_disjunct ctx id (head : head) schema (d : Ir.disjunct_plan) :
    env -> Tuple.t array =
  let node = compile_disjunct_node ctx id head schema d in
  fun env -> timed env id Array.length (fun () -> node env)

and compile_disjunct_node ctx id (head : head) schema (d : Ir.disjunct_plan) =
  match d with
  | Project { input; assigns } ->
      let inb = compile_block ctx (id + 1) input in
      let project = project_head ctx head schema inb.layout assigns in
      fun env -> Array.map (project env.outer) (inb.run env)
  | Aggregate { input; keys; scope_vars; post; assigns } ->
      let inb = compile_block ctx (id + 1) input in
      let key = Row.group_key ctx inb.layout keys in
      let emit =
        aggregate_head ctx head schema inb.layout ~keys scope_vars post assigns
      in
      fun env ->
        let rows = inb.run env in
        Gov.tick (gov env);
        let outer = env.outer in
        let groups =
          if keys = [] then [ Array.to_list rows ]
          else begin
            (* groups accumulate in reversed ref cells: O(1) append *)
            let tbl = Tuple.Key_tbl.create (max 16 (Array.length rows / 4)) in
            let order = ref [] in
            Array.iter
              (fun row ->
                let k = key outer row in
                match Tuple.Key_tbl.find_opt tbl k with
                | Some cell -> cell := row :: !cell
                | None ->
                    let cell = ref [ row ] in
                    order := cell :: !order;
                    Tuple.Key_tbl.add tbl k cell)
              rows;
            List.rev_map (fun cell -> List.rev !cell) !order
          end
        in
        Array.of_list (List.filter_map (emit outer) groups)

(* An identity rename ([Ir.identity_rename] of a relation with the head's
   attributes, in order) returns the scanned relation under the head's
   name, charged as its scan and head would be. Under Set conventions it
   is a set already: a stored relation is read as one, and a
   definition's relation was deduplicated by its fixpoint or its head. *)
and compile_coll ctx id ({ head; disjuncts } as p : Ir.coll_plan) :
    env -> Relation.t =
  let name = head.head_name in
  let schema = lazy (Schema.make head.head_attrs) in
  let ds =
    List.map2
      (fun did d -> compile_disjunct ctx did head schema d)
      (Ir.node_child_ids id (Ir.C p)) disjuncts
  in
  let rename = Ir.identity_rename p in
  fun env ->
    timed env id Relation.cardinality @@ fun () ->
    Gov.tick (gov env);
    if not (Gov.enter_collection (gov env)) then
      Relation.empty ~name head.head_attrs
    else
      in_collection env name (fun () ->
          match rename with
          | Some rel
            when Option.map Schema.attrs (I.base_schema env.ctx rel)
                 = Some head.head_attrs ->
              with_actual env id (fun a -> a.Ir.a_renamed <- true);
              let r = I.source_rows env.ctx env.outer (Base rel) in
              let n = Gov.charge_rows (gov env) (Relation.cardinality r) in
              Relation.rename name (Relation.take n r)
          | _ -> (
              let rows = Array.concat (List.map (fun d -> d env) ds) in
              let r =
                Relation.of_array ~name (Lazy.force schema)
                  (charge_rows env rows)
              in
              match (I.conv env.ctx).Conventions.collection with
              | Conventions.Set -> Relation.dedup r
              | Conventions.Bag -> r))

(* ------------------------------------------------------------------ *)
(* Recursive strata: the hash-based fixpoint over plans               *)
(* ------------------------------------------------------------------ *)

(* The delta-substitution helpers ([delta_name], [count_scans],
   [subst_scan], [opaque_refs], [seminaive_eligible]) live in
   [Arc_plan.Ir] so the incremental maintenance layer (Arc_ivm) shares
   them with the fixpoint below. *)
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
   index probes and appends of the accumulated relation, round
   bookkeeping. *)
let fixpoint_share env id ran f =
  match env.stats with
  | None -> f ()
  | Some st ->
      let ran = List.sort_uniq compare ran in
      let inside () =
        List.fold_left (fun t n -> Int64.add t (Ir.incl_of st n)) 0L ran
      in
      let a = Ir.touch st id in
      let head0 = a.Ir.a_incl_ns and in0 = inside () and t0 = clock () in
      let r = f () in
      let ns = Int64.sub (clock ()) t0 in
      let own = Int64.sub ns (Int64.sub (inside ()) in0) in
      a.Ir.a_fix_ns <- Int64.add a.Ir.a_fix_ns (Int64.max 0L own);
      a.Ir.a_incl_ns <- Int64.add head0 ns;
      r

(* The fixpoint a recursive stratum runs, an observable property of its
   plans: delta rules when every component reference is a plan scan
   ([Ir.seminaive_eligible]), whole-definition rules otherwise. *)
let fixpoint_kind (dps : Ir.def_plan list) =
  if Ir.seminaive_eligible (List.map (fun d -> d.Ir.dname) dps) dps then
    `Seminaive
  else `Naive

(* The indexed fixpoint. Round 0, the seed, runs every definition whole;
   each later round runs only the definition's rules. Each definition
   accumulates its rows in a [Relation.distinct], whose index of row
   positions replaces the per-round dedup/minus against the accumulated
   relation: a rule's new rows are appended behind the newest version in
   place, the round's delta is the slice they fill, and all definitions
   of a round commit together. The rules are chosen by [fixpoint_kind].
   A seminaive stratum runs one delta rule per component-scan occurrence,
   restricted to the single disjunct that contains the occurrence (the
   other disjuncts do not read that delta), with a per-rule cache
   ([fix_cache]) that memoizes every component-free subtree and keeps
   hash-join build tables alive across rounds, so the stable side of a
   delta join is built once and only probed thereafter: per-round cost
   tracks the delta, not the closure. A naive stratum hides a component
   reference in a formula the plan cannot substitute, so it runs one rule
   per disjunct that reads the component (by a scan or inside a formula),
   whole and uncached: [stable_subtree] cannot see such references. A
   disjunct that reads no component adds nothing after the seed, so it
   gets no rule. Budgets charge a tick
   plus a row charge per rule run and check iterations once per round. *)
let indexed_fixpoint env component (dps : (Ir.def_plan * int) list) =
  let ctx = env.ctx in
  let seminaive = fixpoint_kind (List.map fst dps) = `Seminaive in
  let banned = component @ List.map delta_name component in
  (* definition [n]'s relation and, as its delta, the rows it gained
     beyond the first [before] *)
  let commit (n, id, _, acc) before =
    let all = Relation.contents acc in
    let delta = Relation.drop before all in
    with_actual env id (fun a ->
        a.Ir.a_deltas <- Relation.cardinality delta :: a.Ir.a_deltas);
    I.idb_set ctx n all;
    I.idb_set ctx (delta_name n) delta;
    delta
  in
  let t0 = clock () in
  let defs =
    List.map
      (fun (dp, id) ->
        fixpoint_share env id [ id ] @@ fun () ->
        let n = dp.Ir.dname and head = dp.Ir.dplan.head in
        let schema = Schema.make head.head_attrs in
        let acc = Relation.distinct ~name:n schema in
        Relation.iter (Relation.insert acc)
          (compile_coll ctx id dp.Ir.dplan env);
        let dids = Ir.node_child_ids id (Ir.C dp.Ir.dplan) in
        let rule did d fix =
          (compile_disjunct ctx did head (Lazy.from_val schema) d, did, fix)
        in
        let rules =
          if seminaive then
            List.init (Ir.count_scans component (Ir.C dp.Ir.dplan)) (fun i ->
                let subst = (Ir.subst_scan component i dp.Ir.dplan).disjuncts in
                let d = Ir.occurrence_disjunct component i dp.Ir.dplan in
                let sd = List.nth subst d and did = List.nth dids d in
                rule did sd (Some (make_fix_cache banned did sd)))
          else
            List.combine dids dp.Ir.dplan.disjuncts
            |> List.filter (fun (_, d) ->
                   Ir.count_scans component (Ir.D d) > 0
                   || Ir.opaque_refs component (Ir.D d))
            |> List.map (fun (did, d) -> rule did d None)
        in
        let def = (n, id, rules, acc) in
        ignore (commit def 0);
        def)
      dps
  in
  record_round env dps t0;
  (* round [i]; the number of the round that found nothing new, or that
     a budget stopped *)
  let rec round i =
    Gov.tick (gov env);
    if (not (Gov.iteration_allowed (gov env) i)) || Gov.stopped (gov env)
    then i
    else begin
      let t0 = clock () in
      let befores =
        List.map
          (fun (n, id, rules, acc) ->
            fixpoint_share env id (List.map (fun (_, did, _) -> did) rules)
            @@ fun () ->
            let before = Relation.cardinality (Relation.contents acc) in
            List.iter
              (fun (rule, _, fix) ->
                Gov.tick (gov env);
                if Gov.enter_collection (gov env) then
                  in_collection env n (fun () ->
                      charge_rows env (rule { env with fix }))
                  |> Array.iter (Relation.insert acc))
              rules;
            before)
          defs
      in
      let deltas =
        List.map2
          (fun ((_, id, _, _) as def) before ->
            fixpoint_share env id [] @@ fun () -> commit def before)
          defs befores
      in
      record_round env dps t0;
      if List.for_all Relation.is_empty deltas then i else round (i + 1)
    end
  in
  let iterations = round 1 in
  (* a recursive head's rows are what its fixpoint added, the sum of its
     deltas, not only what its own invocation (the seed) emitted *)
  List.iter
    (fun (_, id, _, _) ->
      with_actual env id (fun a ->
          a.Ir.a_iterations <- iterations;
          a.Ir.a_rows <- List.fold_left ( + ) 0 a.Ir.a_deltas))
    defs;
  List.iter (fun n -> I.idb_remove ctx (delta_name n)) component

(* A recursive stratum's fixpoint starts from empty component relations
   (the seed round's recursive disjuncts read them). [id_of] gives each
   definition's base id, its place in [Ir.program_ids]. *)
let exec_stratum env id_of (s : Ir.stratum) =
  let ctx = env.ctx in
  match s with
  | Ir.Nonrecursive dp ->
      I.idb_set ctx dp.dname (compile_coll ctx (id_of dp) dp.dplan env)
  | Ir.Recursive dps ->
      let component = List.map (fun d -> d.Ir.dname) dps in
      (* stratification check, as in the reference *)
      List.iter
        (fun dp ->
          List.iter
            (fun (m, negative) ->
              if negative && List.mem m component then
                raise_kind
                  (Err.Unstratifiable { name = dp.Ir.dname; dep = m }))
            (Depend.collection_deps dp.Ir.dcoll);
          I.idb_set ctx dp.Ir.dname
            (Relation.empty ~name:dp.Ir.dname dp.Ir.dplan.head.head_attrs))
        dps;
      indexed_fixpoint env component (List.map (fun dp -> (dp, id_of dp)) dps)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* The AST-level front of [compile]: magic sets, validation and the
   lowering environment. *)
let front ?conv ?externals ?guard ~db (prog : program) =
  (* goal-directed recursion: restrict recursive definitions to the
     constants the main query demands (AST-level, before validation, so
     the magic relation is prepared and stratified like any other def) *)
  let prog, magic_changed = Opt.magic_sets prog in
  let ctx, safe = I.prepare ?conv ?externals ?guard ~db prog in
  let lenv =
    Lower.env_of_db ~db ~defs:(List.map (fun d -> d.def_name) safe)
  in
  (prog, magic_changed, ctx, safe, lenv)

(* Lower and optimize a program against a database: returns the context
   (with abstracts registered, IDB empty), the raw and optimized plans, and
   the per-pass change report. *)
let compile ?conv ?externals ?guard ~db (prog : program) =
  let prog, magic_changed, ctx, safe, lenv =
    front ?conv ?externals ?guard ~db prog
  in
  let raw = Lower.lower_program lenv ~safe prog in
  let optimized, report = Opt.optimize lenv raw in
  ( ctx,
    raw,
    optimized,
    ("magic-sets", magic_changed)
    :: ("decorrelate-aggregates", !(lenv.Lower.unnested))
    :: report )

let decorrelation ?conv ?externals ~db (prog : program) =
  let prog, _, _, _, lenv = front ?conv ?externals ~db prog in
  Lower.decorrelate lenv prog

let exec_program ?stats ctx (pp : Ir.program_plan) : Eval.outcome =
  let env = { ctx; outer = []; stats; fix = None } in
  let def_ids, main_id = Ir.program_ids pp in
  let id_of dp = List.assoc dp.Ir.dname def_ids in
  try
    List.iter (exec_stratum env id_of) pp.strata;
    match pp.main with
    | Ir.Main_coll p ->
        Eval.Rows (compile_coll ctx (Option.get main_id) p env)
    | Ir.Main_sentence f -> Eval.Truth (I.eval_formula ctx [] f)
  with V.Type_error m ->
    raise (Eval_error { Err.kind = Err.Msg ("type error: " ^ m); context = [] })

let run ?conv ?externals ?guard ~db (prog : program) =
  try
    let ctx, _, optimized, _ = compile ?conv ?externals ?guard ~db prog in
    exec_program ctx optimized
  with V.Type_error m -> raise (Eval_error { Err.kind = Err.Msg ("type error: " ^ m); context = [] })

let run_rows ?conv ?externals ?guard ~db prog =
  match run ?conv ?externals ?guard ~db prog with
  | Eval.Rows r -> r
  | Eval.Truth _ ->
      raise_kind (Err.Msg "expected a collection result, got a sentence")

let run_truth ?conv ?externals ?guard ~db prog =
  match run ?conv ?externals ?guard ~db prog with
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

let exec_pipeline ctx (t : Ir.t) : Row.layout * Row.t array =
  let b = compile_block ctx 0 t in
  (b.layout, b.run (hook_env ctx))

let exec_collection ctx (p : Ir.coll_plan) : Relation.t =
  compile_coll ctx 0 p (hook_env ctx)

let exec_stratum_plan ctx (s : Ir.stratum) : unit =
  exec_stratum (hook_env ctx) (fun _ -> 0) s

(* ------------------------------------------------------------------ *)
(* Metrics export                                                      *)
(* ------------------------------------------------------------------ *)

module Metrics = Arc_obs.Metrics
module Json = Arc_obs.Json
module Explain = Arc_plan.Explain

(* Aggregates a run's per-node actuals into operator-level series: totals
   as counters, per-node distributions as histograms. This is what
   [arc analyze --metrics-out] exports. *)
let export_stats (m : Metrics.t) ~cenv (pp : Ir.program_plan)
    (stats : Ir.stats) =
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
    (Explain.analyze_info ~cenv pp ~stats)

(* Renders a run's per-node actuals as spans (see exec.mli). A span
   aggregates every invocation of its node, so it has no real start:
   [span] lays its children back to back from its own start and widens
   its duration to cover them (seminaive delta rules run a head's
   disjuncts outside the head). Spans are built as placers awaiting their
   parent and start; a placed span returns its duration and its objects
   in preorder, its own first, so ids are preorder and parents precede
   children. *)
let spans_of_stats (pp : Ir.program_plan) (stats : Ir.stats) =
  let next_id = ref 0 in
  let rec lay parent start = function
    | [] -> (0, [])
    | place :: rest ->
        let dur, objs = place parent start in
        let rest_dur, rest_objs = lay parent (start + dur) rest in
        (dur + rest_dur, objs @ rest_objs)
  in
  let span name attrs own kids parent start =
    let id = !next_id in
    incr next_id;
    let sum, descendants = lay (Some id) start kids in
    let dur = max (Int64.to_int own) sum in
    ( dur,
      Json.Obj
        [
          ("id", Json.Int id);
          ( "parent",
            match parent with Some p -> Json.Int p | None -> Json.Null );
          ("name", Json.Str name);
          ("start_ns", Json.Int start);
          ("dur_ns", Json.Int dur);
          ("attrs", Json.Obj attrs);
        ]
      :: descendants )
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
        let rename =
          Option.to_list
            (Option.map (fun r -> ("rename", Json.Str r)) ni.Explain.ni_rename)
        in
        let name, hash =
          match (ni.Explain.ni_op, ni.Explain.ni_head) with
          | "union", Some head when a.Ir.a_iterations > 0 ->
              ( "collection:" ^ head,
                [ ("fixpoint_ns", Json.Int (Int64.to_int a.Ir.a_fix_ns)) ] )
          | "union", Some head -> ("collection:" ^ head, [])
          | ("hash_join" | "semi_join" | "anti_join" as op), _ ->
              ( op,
                [
                  ("build", Json.Int a.Ir.a_build);
                  ("probe", Json.Int a.Ir.a_probe);
                  ("matches", Json.Int a.Ir.a_matches);
                ] )
          | op, _ -> (op, [])
        in
        span name
          (("rows", Json.Int a.Ir.a_rows)
          :: ("invocations", Json.Int a.Ir.a_invocations)
          :: (rename @ hash))
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
        let round i ns =
          span
            (if i = 0 then "seed" else "iteration")
            (List.filter_map
               (fun (n, deltas, _) ->
                 Option.map
                   (fun d -> ("delta:" ^ n, Json.Int d))
                   (List.nth_opt deltas i))
               heads)
            ns []
        in
        [
          span
            (match fixpoint_kind dps with
            | `Seminaive -> "fixpoint:seminaive"
            | `Naive -> "fixpoint:naive")
            [
              ( "stratum",
                Json.Str
                  (String.concat "," (List.map (fun dp -> dp.Ir.dname) dps)) );
              ("iterations", Json.Int a.Ir.a_iterations);
            ]
            0L
            (List.mapi round (List.rev a.Ir.a_rounds_ns));
        ]
  in
  snd
    (lay None 0
       (List.concat_map
          (function
            | Ir.Nonrecursive dp -> def dp
            | Ir.Recursive dps -> fixpoint dps @ List.concat_map def dps)
          pp.strata
       @ Option.to_list (Option.bind main_id head)))

(* One Chrome ["ph": "X"] duration event per span, in microseconds. *)
let chrome_trace spans =
  let field k sp = Option.value ~default:Json.Null (Json.member k sp) in
  let us k sp =
    let ns = Option.value ~default:0 (Json.to_int (field k sp)) in
    Json.Float (Float.of_int ns /. 1e3)
  in
  Json.List
    (List.map
       (fun sp ->
         Json.Obj
           [
             ("name", field "name" sp);
             ("ph", Json.Str "X");
             ("ts", us "start_ns" sp);
             ("dur", us "dur_ns" sp);
             ("pid", Json.Int 1);
             ("tid", Json.Int 1);
             ("args", field "attrs" sp);
           ])
       spans)
