open Arc_core.Ast
module Conventions = Arc_value.Conventions
module Relation = Arc_relation.Relation
module Tuple = Arc_relation.Tuple
module Schema = Arc_relation.Schema
module Database = Arc_relation.Database
module Depend = Arc_core.Depend
module Ir = Arc_plan.Ir
module Eval = Arc_engine.Eval
module Exec = Arc_engine.Exec
module Row = Arc_engine.Row
module I = Eval.Internal
module Metrics = Arc_obs.Metrics

exception Ivm_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Ivm_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Reserved working relations                                          *)
(* ------------------------------------------------------------------ *)

(* Registered in the per-batch context's IDB under the reserved "__ivm__"
   namespace (Analysis rejects user relations there). Counting strata
   read old/new/pos/neg versions of changed relations. *)
let nm_old r = "__ivm__old__" ^ r
let nm_new r = "__ivm__new__" ^ r
let nm_pos r = "__ivm__pos__" ^ r
let nm_neg r = "__ivm__neg__" ^ r

(* ------------------------------------------------------------------ *)
(* Eligibility: the multilinear pipeline core                          *)
(* ------------------------------------------------------------------ *)

let no_rel_deps f = Depend.refs f = []

(* [None] when the pipeline is safe to differentiate by scan
   substitution; [Some reason] names the first offending node class (the
   fallback matrix in docs/ivm.md). Semi/anti joins and laterals are not
   multilinear in their inputs; subqueries/resolve hide references the
   substitution cannot reach. *)
let rec pipeline_blocker (t : Ir.t) : string option =
  match t with
  | Ir.One -> None
  | Ir.Scan { filters; _ } ->
      if List.for_all (fun p -> no_rel_deps (Pred p)) filters then None
      else Some "rel_dependent_filter"
  | Ir.Product { left; right } | Ir.Hash_join { left; right; _ } -> (
      match pipeline_blocker left with
      | Some _ as b -> b
      | None -> pipeline_blocker right)
  | Ir.Filter { input; _ } | Ir.Prune { input; _ } -> pipeline_blocker input
  | Ir.Residual { input; conjs } ->
      if List.for_all no_rel_deps conjs then pipeline_blocker input
      else Some "rel_dependent_residual"
  | Ir.Semi { anti; _ } -> Some (if anti then "anti_join" else "semi_join")
  | Ir.Lateral _ -> Some "lateral"
  | Ir.Subquery _ -> Some "subquery"
  | Ir.Resolve _ -> Some "resolve"
  (* A branch union is affine, not linear, in each branch's occurrences
     (zeroing one branch leaves the others' output), so per-occurrence
     scan substitution would over-count. *)
  | Ir.Append _ -> Some "append"

let disjunct_blocker = function
  | Ir.Project { input; _ } -> pipeline_blocker input
  | Ir.Aggregate { input; post; _ } -> (
      match pipeline_blocker input with
      | Some _ as b -> b
      | None ->
          if List.for_all no_rel_deps post then None
          else Some "rel_dependent_having")

(* ------------------------------------------------------------------ *)
(* Maintenance state                                                   *)
(* ------------------------------------------------------------------ *)

(* The groups of an aggregate disjunct; a projection leaves them empty. *)
type disj_state = {
  plan : Ir.disjunct_plan;
  groups : Row.t list Tuple.Key_tbl.t;  (* gkey -> support rows *)
  outs : Tuple.t Tuple.Key_tbl.t;  (* gkey -> emitted tuple *)
}

type coll_state =
  | CCounting of {
      head : head;
      plan : Ir.coll_plan;  (* kept for state-rebuild recovery *)
      disjs : disj_state list;
      counts : Delta.t;  (* derivation counts, across disjuncts *)
    }
  | CRecompute of { plan : Ir.coll_plan; reason : string }

(* A recursive stratum keeps no state beyond its materialized
   definitions: when an input changes, its fixpoint is recomputed. *)
type stratum_state =
  | SNonrec of { sname : rel_name; sdeps : rel_name list; cs : coll_state }
  | SRecursive of {
      component : rel_name list;
      dps : Ir.def_plan list;
      sdeps : rel_name list;  (* non-component inputs *)
    }

type view = {
  v_name : string;
  v_prog : program;
  v_strata : stratum_state list;
  v_main : coll_state;
  v_main_deps : rel_name list;
  mutable v_defs : (rel_name * Relation.t) list;  (* maintained, in order *)
  mutable v_result : Relation.t;
  v_deps : rel_name list;  (* base relations the view reads *)
  mutable v_fallbacks : int;
}

(* Per-base-relation incremental cache: bag multiplicities by tuple
   plus the visible (convention-level) relation. Batches update both
   in O(|batch|), so applying a batch never re-deduplicates or re-diffs
   a whole base relation. *)
type base_cache = {
  bc_counts : int Tuple.Tbl.t;
  mutable bc_vis : Relation.t;
}

type t = {
  conv : Conventions.t;
  metrics : Metrics.t option;
  mutable tdb : Database.t;
  mutable tviews : view list;  (* registration order *)
  tbase : (rel_name, base_cache) Hashtbl.t;
}

type batch = (rel_name * (Tuple.t * int) list) list

type view_report = {
  vr_view : string;
  vr_mode : string;
  vr_out_delta : int;
  vr_ns : int64;
  vr_fallbacks : int;
}

(* A changed relation during one maintenance pass: visible (convention-
   level) before/after values plus their signed difference. *)
type change = {
  ch_old : Relation.t;
  ch_new : Relation.t;
  ch_eff : (Tuple.t * int) list;
}

let create ?(conv = Conventions.sql_set) ?metrics ~db () =
  { conv; metrics; tdb = db; tviews = []; tbase = Hashtbl.create 16 }

let conv t = t.conv
let db t = t.tdb
let views t = List.map (fun v -> v.v_name) t.tviews

let find_view t name =
  match List.find_opt (fun v -> v.v_name = name) t.tviews with
  | Some v -> v
  | None -> fail "no view named %S is registered" name

(* v_result is patched in place by deltas (order: survivors then
   appended inserts); sort here to keep the documented contract. *)
let result t name = Relation.sort (find_view t name).v_result

let batch_rows (b : batch) =
  List.fold_left
    (fun acc (_, es) ->
      List.fold_left (fun acc (_, n) -> acc + abs n) acc es)
    0 b

let inverse (b : batch) =
  List.map (fun (r, es) -> (r, List.map (fun (tp, n) -> (tp, -n)) es)) b

let metric_inc t ?labels name =
  match t.metrics with None -> () | Some m -> Metrics.inc m ?labels name

let metric_observe t name v =
  match t.metrics with None -> () | Some m -> Metrics.observe m name v

(* ------------------------------------------------------------------ *)
(* Small helpers shared with the executor's semantics                  *)
(* ------------------------------------------------------------------ *)

let visible conv (r : Relation.t) =
  match conv.Conventions.collection with
  | Conventions.Set -> Relation.dedup r
  | Conventions.Bag -> r

(* Cache lookup with lazy seeding from [rel] (the relation's value
   {e before} the current batch, when called from [apply]). Seeding is
   the only whole-relation pass; [register] triggers it for every base
   dependency so later batches stay O(|batch|). *)
let base_cache_for t r (rel : Relation.t) =
  match Hashtbl.find_opt t.tbase r with
  | Some bc -> bc
  | None ->
      let counts = Tuple.Tbl.create (1 + Relation.cardinality rel) in
      Relation.iter
        (fun tp ->
          Tuple.Tbl.replace counts tp
            (1 + Option.value ~default:0 (Tuple.Tbl.find_opt counts tp)))
        rel;
      let bc = { bc_counts = counts; bc_vis = visible t.conv rel } in
      Hashtbl.add t.tbase r bc;
      bc

let rel_of_rows ~name (like : Relation.t) rows =
  Relation.make ~name (Relation.schema like) rows

(* Removes one copy of [row] from a group's support rows. Rows of one
   pipeline share a layout, so they compare slot by slot. *)
let remove_row rows row =
  let rec go = function
    | [] -> fail "maintenance state underflow: support row not found"
    | r :: rest ->
        if Array.for_all2 Tuple.equal r row then rest else r :: go rest
  in
  go rows

(* ------------------------------------------------------------------ *)
(* Scan-substitution runs                                              *)
(* ------------------------------------------------------------------ *)

(* The relations (in traversal order) scanned by occurrences of [rels]. *)
let occurrence_rels_t rels (t : Ir.t) : rel_name list =
  let acc = ref [] in
  ignore
    (Ir.subst_scans_with_t rels
       (fun k rel ->
         acc := (k, rel) :: !acc;
         None)
       t);
  List.map snd (List.sort compare !acc)

(* Signed derivation delta of a multilinear pipeline:
   Δf = Σ_j f(new_1…new_{j-1}, Δ_j, old_{j+1}…), each Δ_j split into its
   insertion (+1) and deletion (−1) sides, as runs of rows with their
   layout and sign. Changed relations are renamed per occurrence, so no
   scan resolves a changed name directly. *)
let signed_runs ctx (changed : (rel_name, change) Hashtbl.t) (t : Ir.t) :
    (Row.layout * Row.t array * int) list =
  let rels = Hashtbl.fold (fun r _ acc -> r :: acc) changed [] in
  let occs = occurrence_rels_t rels t in
  let side sign rj =
    let ch = Hashtbl.find changed rj in
    let nonempty =
      List.exists (fun (_, n) -> if sign > 0 then n > 0 else n < 0) ch.ch_eff
    in
    not nonempty
  in
  List.concat
    (List.mapi
       (fun j rj ->
         let run sign name_j =
           let plan =
             Ir.subst_scans_with_t rels
               (fun k rel ->
                 if k < j then Some (nm_new rel)
                 else if k = j then Some name_j
                 else Some (nm_old rel))
               t
           in
           let layout, rows = Exec.exec_pipeline ctx plan in
           (layout, rows, sign)
         in
         (if side 1 rj then [] else [ run 1 (nm_pos rj) ])
         @ if side (-1) rj then [] else [ run (-1) (nm_neg rj) ])
       occs)

(* ------------------------------------------------------------------ *)
(* Counting collections                                                *)
(* ------------------------------------------------------------------ *)

let visible_of_counts conv (head : head) counts =
  let schema = Schema.make head.head_attrs in
  let rows =
    List.concat_map
      (fun (tp, n) ->
        if n < 0 then fail "maintenance state underflow: negative count"
        else
          match conv.Conventions.collection with
          | Conventions.Set -> [ tp ]
          | Conventions.Bag -> List.init n (fun _ -> tp))
      (Delta.to_list counts)
  in
  Relation.make ~name:head.head_name schema rows

(* Fold one signed derivation into the count table, accumulating the
   visible-level output delta of the transition into [out] — so the
   materialized result can be patched instead of rebuilt from counts. *)
let fold_count conv counts out tp s =
  let c = Delta.count counts tp in
  let c' = c + s in
  if c' < 0 then fail "maintenance state underflow: negative count";
  Delta.add counts tp s;
  match conv.Conventions.collection with
  | Conventions.Bag -> if s <> 0 then Delta.add out tp s
  | Conventions.Set ->
      if c = 0 && c' > 0 then Delta.add out tp 1
      else if c > 0 && c' = 0 then Delta.add out tp (-1)

let disj_input (d : disj_state) =
  match d.plan with Ir.Project { input; _ } | Ir.Aggregate { input; _ } -> input

(* Errors of a counting collection name it, as the executor's do. *)
let in_collection (head : head) f =
  try f ()
  with Eval.Eval_error e ->
    raise (Eval.Eval_error (Arc_guard.Error.in_collection head.head_name e))

(* Folds signed runs of a disjunct's pipeline into the collection's
   derivation counts, accumulating the visible-level output delta in
   [out]. An aggregate folds the runs into its groups' support rows and
   re-aggregates each group whose support changed; [seed] also
   re-aggregates the empty key's group, γ∅'s one group, which emits on an
   empty input too. *)
let fold_runs ctx conv head counts out ~seed d runs =
  let schema = lazy (Schema.make head.head_attrs) in
  match (d.plan, runs) with
  | Ir.Project { assigns; _ }, _ ->
      List.iter
        (fun (layout, rows, s) ->
          let project = Exec.project_head ctx head schema layout assigns in
          Array.iter
            (fun row -> fold_count conv counts out (project [] row) s)
            rows)
        runs
  | Ir.Aggregate _, [] -> ()
  | Ir.Aggregate { keys; scope_vars; post; assigns; _ }, (layout, _, _) :: _ ->
      let dirty = Tuple.Key_tbl.create 16 in
      if seed then Tuple.Key_tbl.replace dirty [||] ();
      let key = Row.group_key ctx layout keys in
      List.iter
        (fun (_, rows, s) ->
          Array.iter
            (fun row ->
              let gk = key [] row in
              let cur =
                Option.value ~default:[] (Tuple.Key_tbl.find_opt d.groups gk)
              in
              Tuple.Key_tbl.replace d.groups gk
                (if s > 0 then row :: cur else remove_row cur row);
              Tuple.Key_tbl.replace dirty gk ())
            rows)
        runs;
      let emit =
        Exec.aggregate_head ctx head schema layout ~keys scope_vars post assigns
      in
      Tuple.Key_tbl.iter
        (fun gk () ->
          let group =
            Option.value ~default:[] (Tuple.Key_tbl.find_opt d.groups gk)
          in
          Option.iter
            (fun tp -> fold_count conv counts out tp (-1))
            (Tuple.Key_tbl.find_opt d.outs gk);
          Tuple.Key_tbl.remove d.outs gk;
          if group = [] then Tuple.Key_tbl.remove d.groups gk;
          Option.iter
            (fun tp ->
              fold_count conv counts out tp 1;
              Tuple.Key_tbl.replace d.outs gk tp)
            (emit [] group))
        dirty

(* Initial materialization: full pipeline runs establish derivation
   counts (which collection-level dedup would destroy) and group
   support. *)
let seed_counting ctx conv head disjs counts =
  in_collection head (fun () ->
      List.iter
        (fun d ->
          let layout, rows = Exec.exec_pipeline ctx (disj_input d) in
          fold_runs ctx conv head counts (Delta.create ()) ~seed:true d
            [ (layout, rows, 1) ])
        disjs);
  Relation.sort (visible_of_counts conv head counts)

(* Returns the new visible value plus the signed output delta that got
   there: the materialized result is patched with [Relation.apply_delta],
   never rebuilt from the count table, so batch cost scales with the
   delta (plus, for deletions, one cached-key filter pass). *)
let maintain_counting ctx conv head disjs counts changed old_r =
  let out = Delta.create () in
  in_collection head (fun () ->
      List.iter
        (fun d ->
          fold_runs ctx conv head counts out ~seed:false d
            (signed_runs ctx changed (disj_input d)))
        disjs);
  let eff =
    List.sort
      (fun (a, _) (b, _) -> Tuple.compare a b)
      (Delta.to_list out)
  in
  let new_r = if eff = [] then old_r else Relation.apply_delta old_r eff in
  (new_r, eff)

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let classify_coll (plan : Ir.coll_plan) : coll_state =
  match List.find_map disjunct_blocker plan.disjuncts with
  | Some why -> CRecompute { plan; reason = why }
  | None ->
      let state d =
        {
          plan = d;
          groups = Tuple.Key_tbl.create 16;
          outs = Tuple.Key_tbl.create 16;
        }
      in
      CCounting
        {
          head = plan.head;
          plan;
          disjs = List.map state plan.disjuncts;
          counts = Delta.create ();
        }

let deps_of_coll (c : collection) =
  List.sort_uniq compare (List.map fst (Depend.collection_deps c))

let classify_stratum (s : Ir.stratum) : stratum_state =
  match s with
  | Ir.Nonrecursive dp ->
      SNonrec
        {
          sname = dp.Ir.dname;
          sdeps = deps_of_coll dp.Ir.dcoll;
          cs = classify_coll dp.Ir.dplan;
        }
  | Ir.Recursive dps ->
      let component = List.map (fun dp -> dp.Ir.dname) dps in
      let sdeps =
        List.filter
          (fun n -> not (List.mem n component))
          (List.sort_uniq compare
             (List.concat_map (fun dp -> deps_of_coll dp.Ir.dcoll) dps))
      in
      SRecursive { component; dps; sdeps }

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)
(* ------------------------------------------------------------------ *)

let note_fallback t v reason =
  v.v_fallbacks <- v.v_fallbacks + 1;
  metric_inc t
    ~labels:[ ("view", v.v_name); ("reason", reason) ]
    "arc_ivm_fallbacks_total"

let eval_coll_state ctx conv (cs : coll_state) : Relation.t =
  match cs with
  | CCounting { head; disjs; counts; _ } ->
      seed_counting ctx conv head disjs counts
  | CRecompute { plan; _ } -> Relation.sort (Exec.exec_collection ctx plan)

let register t ~name (prog : program) =
  if Arc_core.Analysis.is_reserved_name name then
    fail
      "view name %S is in the engine's reserved namespace (__delta__…, \
       __ivm__…)"
      name;
  if List.exists (fun v -> v.v_name = name) t.tviews then
    fail "a view named %S is already registered" name;
  (match prog.main with
  | Sentence _ -> fail "sentence queries cannot be maintained as views"
  | Coll _ -> ());
  let ctx, _raw, plan, _report =
    Exec.compile ~conv:t.conv ~db:t.tdb prog
  in
  let strata = List.map classify_stratum plan.Ir.strata in
  let main_cs, main_deps =
    match (plan.Ir.main, prog.main) with
    | Ir.Main_coll p, Coll c -> (classify_coll p, deps_of_coll c)
    | _ -> fail "sentence queries cannot be maintained as views"
  in
  (* Materialize strata in order, building the initial maintenance
     state; counting collections are seeded from full pipeline runs so
     derivation counts survive collection-level dedup. *)
  let defs = ref [] in
  List.iter
    (fun ss ->
      match ss with
      | SNonrec { sname; cs; _ } ->
          let r = eval_coll_state ctx t.conv cs in
          I.idb_set ctx sname r;
          defs := !defs @ [ (sname, r) ]
      | SRecursive { component; dps; _ } ->
          Exec.exec_stratum_plan ctx (Ir.Recursive dps);
          List.iter
            (fun n ->
              match I.idb_get ctx n with
              | Some r ->
                  let r = Relation.sort r in
                  I.idb_set ctx n r;
                  defs := !defs @ [ (n, r) ]
              | None -> fail "fixpoint left %S unmaterialized" n)
            component)
    strata;
  let result = eval_coll_state ctx t.conv main_cs in
  let def_names = List.map fst !defs in
  let base_deps =
    List.filter
      (fun n -> not (List.mem n def_names))
      (List.sort_uniq compare
         (main_deps
         @ List.concat_map
             (function
               | SNonrec { sdeps; _ } | SRecursive { sdeps; _ } -> sdeps)
             strata))
  in
  List.iter
    (fun r ->
      match Database.find_opt t.tdb r with
      | Some rel -> ignore (base_cache_for t r rel)
      | None -> ())
    base_deps;
  let v =
    {
      v_name = name;
      v_prog = prog;

      v_strata = strata;
      v_main = main_cs;
      v_main_deps = main_deps;
      v_defs = !defs;
      v_result = result;
      v_deps = base_deps;
      v_fallbacks = 0;
    }
  in
  t.tviews <- t.tviews @ [ v ]

(* ------------------------------------------------------------------ *)
(* Batch application                                                   *)
(* ------------------------------------------------------------------ *)

let register_change ctx (name : rel_name) (ch : change) =
  let set = I.idb_set ctx in
  set (nm_old name) ch.ch_old;
  set (nm_new name) ch.ch_new;
  let mk rows = rel_of_rows ~name ch.ch_new rows in
  set (nm_pos name)
    (mk (Delta.expand (List.filter (fun (_, n) -> n > 0) ch.ch_eff)));
  set (nm_neg name)
    (mk
       (Delta.expand
          (List.filter_map
             (fun (tp, n) -> if n < 0 then Some (tp, -n) else None)
             ch.ch_eff)))

let changed_dep changed deps =
  List.exists (fun d -> Hashtbl.mem changed d) deps

(* Maintain one collection-valued definition (or the main collection);
   returns its new visible value plus, on the counting path, the exact
   signed output delta ([None] means the caller must diff). Counting-state
   violations (e.g. a support row that cannot be found after an
   out-of-band change) trigger a counted state rebuild rather than an
   error. *)
let maintain_coll t v ctx (cs : coll_state) changed old_r :
    Relation.t * (Tuple.t * int) list option =
  match cs with
  | CCounting { head; disjs; counts; _ } -> (
      try
        let new_r, eff =
          maintain_counting ctx t.conv head disjs counts changed old_r
        in
        (new_r, Some eff)
      with Ivm_error _ ->
        note_fallback t v "state_rebuild";
        Delta.to_list counts
        |> List.iter (fun (tp, n) -> Delta.add counts tp (-n));
        List.iter
          (fun d ->
            Tuple.Key_tbl.reset d.groups;
            Tuple.Key_tbl.reset d.outs)
          disjs;
        (seed_counting ctx t.conv head disjs counts, None))
  | CRecompute { plan; reason } ->
      note_fallback t v reason;
      (Relation.sort (Exec.exec_collection ctx plan), None)

let maintain_view t v guard changed_base =
  let t0 = Metrics.now_ns () in
  let fb0 = v.v_fallbacks in
  if not (changed_dep changed_base v.v_deps) then
    {
      vr_view = v.v_name;
      vr_mode = "unchanged";
      vr_out_delta = 0;
      vr_ns = Int64.sub (Metrics.now_ns ()) t0;
      vr_fallbacks = 0;
    }
  else begin
    let ctx, _ =
      I.prepare ~conv:t.conv ?guard ~db:t.tdb v.v_prog
    in
    (* Old derived values under their natural names; as strata are
       maintained these are flipped to the new values, so downstream
       fallback recomputation always reads a consistent new database. *)
    List.iter (fun (n, r) -> I.idb_set ctx n r) v.v_defs;
    let changed = Hashtbl.copy changed_base in
    Hashtbl.iter (fun n ch -> register_change ctx n ch) changed;
    let incremental = ref 0 in
    let record_change ?eff n old_r new_r =
      v.v_defs <-
        List.map (fun (n', r) -> if n' = n then (n', new_r) else (n', r))
          v.v_defs;
      I.idb_set ctx n new_r;
      let eff =
        match eff with
        | Some e -> e
        | None -> Relation.diff_signed old_r new_r
      in
      if eff <> [] then begin
        let ch = { ch_old = old_r; ch_new = new_r; ch_eff = eff } in
        Hashtbl.replace changed n ch;
        register_change ctx n ch
      end
    in
    List.iter
      (fun ss ->
        match ss with
        | SNonrec { sname; sdeps; cs } ->
            if changed_dep changed sdeps then begin
              let old_r = List.assoc sname v.v_defs in
              (match cs with CCounting _ -> incr incremental | _ -> ());
              let new_r, eff = maintain_coll t v ctx cs changed old_r in
              record_change ?eff sname old_r new_r
            end
        | SRecursive { component; dps; sdeps } ->
            (* fixpoint relations are sets under every convention, so
               the recomputed stratum is exact whatever the conventions *)
            if changed_dep changed sdeps then begin
              note_fallback t v "recursive";
              Exec.exec_stratum_plan ctx (Ir.Recursive dps);
              List.iter
                (fun n ->
                  match I.idb_get ctx n with
                  | Some r ->
                      record_change n (List.assoc n v.v_defs) (Relation.sort r)
                  | None -> fail "fixpoint left %S unmaterialized" n)
                component
            end)
      v.v_strata;
    let out_delta =
      if changed_dep changed v.v_main_deps then begin
        (match v.v_main with CCounting _ -> incr incremental | _ -> ());
        let old_r = v.v_result in
        let new_r, eff = maintain_coll t v ctx v.v_main changed old_r in
        v.v_result <- new_r;
        let eff =
          match eff with
          | Some e -> e
          | None -> Relation.diff_signed old_r new_r
        in
        List.fold_left (fun acc (_, n) -> acc + abs n) 0 eff
      end
      else 0
    in
    let fb = v.v_fallbacks - fb0 in
    let mode =
      if fb = 0 then "incremental"
      else if !incremental = 0 then "fallback"
      else "mixed"
    in
    let ns = Int64.sub (Metrics.now_ns ()) t0 in
    metric_observe t "arc_ivm_view_delta_rows" (float_of_int out_delta);
    metric_observe t "arc_ivm_propagate_ns" (Int64.to_float ns);
    {
      vr_view = v.v_name;
      vr_mode = mode;
      vr_out_delta = out_delta;
      vr_ns = ns;
      vr_fallbacks = fb;
    }
  end

let state_rows t =
  List.fold_left
    (fun acc v ->
      let coll_rows = function
        | CCounting { counts; disjs; _ } ->
            Delta.cardinality counts
            + List.fold_left
                (fun a d ->
                  Tuple.Key_tbl.fold
                    (fun _ rows a -> a + List.length rows)
                    d.groups a)
                0 disjs
        | CRecompute _ -> 0
      in
      let strata_rows =
        List.fold_left
          (fun a -> function
            | SNonrec { cs; _ } -> a + coll_rows cs
            | SRecursive _ -> a)
          0 v.v_strata
      in
      acc + strata_rows + coll_rows v.v_main
      + List.fold_left
          (fun a (_, r) -> a + Relation.cardinality r)
          0 v.v_defs
      + Relation.cardinality v.v_result)
    0 t.tviews

let apply ?guard t (batch : batch) =
  (* Merge per-relation entries, then validate the whole batch against
     the current database before mutating anything (the mli promises
     atomicity on error). *)
  let order = ref [] in
  let merged = Hashtbl.create 8 in
  List.iter
    (fun (r, entries) ->
      match Hashtbl.find_opt merged r with
      | Some d -> List.iter (fun (tp, n) -> Delta.add d tp n) entries
      | None ->
          order := r :: !order;
          Hashtbl.add merged r (Delta.of_list entries))
    batch;
  let updates =
    List.rev_map
      (fun r ->
        let d = Hashtbl.find merged r in
        match Database.find_opt t.tdb r with
        | None -> fail "unknown base relation %S" r
        | Some rel -> (
            try (r, rel, Relation.apply_delta rel (Delta.to_list d))
            with Invalid_argument msg -> raise (Ivm_error msg)))
      !order
  in
  (* Commit, then fold each relation's net delta into its cache to get
     the visible-level change without any whole-relation pass. [add]
     drops the replaced relation's planner statistics; re-attach them
     with the row count patched and finer column detail marked stale, so
     subsequent compiles keep a fresh base cardinality without paying a
     full re-ANALYZE per batch. *)
  t.tdb <-
    List.fold_left
      (fun db (r, _, nr) ->
        let prior = Database.stats db r in
        let db = Database.add db r nr in
        match prior with
        | None -> db
        | Some s ->
            Database.set_stats db r
              (Arc_relation.Stats.patch_rows s (Relation.cardinality nr)))
      t.tdb updates;
  let changed_base : (rel_name, change) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (r, old_rel, new_rel) ->
      let bc = base_cache_for t r old_rel in
      let schema = Relation.schema old_rel in
      let veff =
        List.filter_map
          (fun (tp, n) ->
            let tp = Relation.align_to schema tp in
            let old_c =
              Option.value ~default:0 (Tuple.Tbl.find_opt bc.bc_counts tp)
            in
            let new_c = old_c + n in
            if new_c <= 0 then Tuple.Tbl.remove bc.bc_counts tp
            else Tuple.Tbl.replace bc.bc_counts tp new_c;
            match t.conv.Conventions.collection with
            | Conventions.Bag -> if n = 0 then None else Some (tp, n)
            | Conventions.Set ->
                if old_c = 0 && new_c > 0 then Some (tp, 1)
                else if old_c > 0 && new_c <= 0 then Some (tp, -1)
                else None)
          (Delta.to_list (Hashtbl.find merged r))
      in
      let ch_old = bc.bc_vis in
      let ch_new =
        match t.conv.Conventions.collection with
        | Conventions.Bag -> new_rel
        | Conventions.Set ->
            if veff = [] then ch_old else Relation.apply_delta ch_old veff
      in
      bc.bc_vis <- ch_new;
      if veff <> [] then
        let ch_eff =
          List.sort (fun (a, _) (b, _) -> Tuple.compare a b) veff
        in
        Hashtbl.replace changed_base r { ch_old; ch_new; ch_eff })
    updates;
  metric_inc t "arc_ivm_batches_total";
  metric_observe t "arc_ivm_batch_delta_rows" (float_of_int (batch_rows batch));
  let reports =
    List.map (fun v -> maintain_view t v guard changed_base) t.tviews
  in
  (* walking every view's state costs a pass; only a registry reads it *)
  Option.iter
    (fun m ->
      Metrics.set_gauge m "arc_ivm_state_rows" (float_of_int (state_rows t)))
    t.metrics;
  reports

(* ------------------------------------------------------------------ *)
(* Differential oracle                                                 *)
(* ------------------------------------------------------------------ *)

let check t =
  List.filter_map
    (fun v ->
      let ctx, _, plan, _ =
        Exec.compile ~conv:t.conv ~db:t.tdb v.v_prog
      in
      match Exec.exec_program ctx plan with
      | Eval.Truth _ -> fail "sentence queries cannot be maintained as views"
      | Eval.Rows fresh ->
          let fresh = Relation.sort fresh in
          if Relation.equal_bag v.v_result fresh then None
          else Some (v.v_name, v.v_result, fresh))
    t.tviews

let fallback_total t =
  List.fold_left (fun acc v -> acc + v.v_fallbacks) 0 t.tviews
