open Arc_core.Ast
module V = Arc_value.Value
module B3 = Arc_value.Bool3
module Conventions = Arc_value.Conventions
module Relation = Arc_relation.Relation
module Tuple = Arc_relation.Tuple
module Schema = Arc_relation.Schema
module Database = Arc_relation.Database
module Depend = Arc_core.Depend
module Ir = Arc_plan.Ir
module Eval = Arc_engine.Eval
module Exec = Arc_engine.Exec
module I = Eval.Internal
module Gov = Arc_guard.Gov
module Metrics = Arc_obs.Metrics

exception Ivm_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Ivm_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Reserved working relations                                          *)
(* ------------------------------------------------------------------ *)

(* Registered in the per-batch context's IDB under the reserved "__ivm__"
   namespace (Analysis rejects user relations there). Counting strata
   read old/new/pos/neg versions of changed relations; DRed reads the old
   versions and keeps its over-delete frontier under [nm_front]. *)
let nm_old r = "__ivm__old__" ^ r
let nm_new r = "__ivm__new__" ^ r
let nm_pos r = "__ivm__pos__" ^ r
let nm_neg r = "__ivm__neg__" ^ r
let nm_front r = "__ivm__front__" ^ r

(* ------------------------------------------------------------------ *)
(* Eligibility: the multilinear pipeline core                          *)
(* ------------------------------------------------------------------ *)

let no_rel_deps f = Depend.formula_deps ~neg:false ~grouped:false [] f = []

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
      else Some "scan filter references a relation"
  | Ir.Product { left; right } | Ir.Hash_join { left; right; _ } -> (
      match pipeline_blocker left with
      | Some _ as b -> b
      | None -> pipeline_blocker right)
  | Ir.Filter { input; _ } | Ir.Prune { input; _ } -> pipeline_blocker input
  | Ir.Residual { input; conjs } ->
      if List.for_all no_rel_deps conjs then pipeline_blocker input
      else Some "residual references a relation"
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
          else Some "aggregate post-condition references a relation")

(* ------------------------------------------------------------------ *)
(* Maintenance state                                                   *)
(* ------------------------------------------------------------------ *)

type disj_state =
  | DProj of { assigns : (attr * term) list; input : Ir.t }
  | DAgg of {
      input : Ir.t;
      keys : grouping;
      scope_vars : var list;
      post : formula list;
      assigns : (attr * term) list;
      groups : (string, I.benv list) Hashtbl.t;  (* gkey -> support rows *)
      outs : (string, Tuple.t list) Hashtbl.t;  (* gkey -> emitted tuples *)
    }

type coll_state =
  | CCounting of {
      head : head;
      plan : Ir.coll_plan;  (* kept for state-rebuild recovery *)
      disjs : disj_state list;
      counts : Delta.t;  (* derivation counts, across disjuncts *)
    }
  | CRecompute of { plan : Ir.coll_plan; reason : string }

type stratum_state =
  | SNonrec of { sname : rel_name; sdeps : rel_name list; cs : coll_state }
  | SRecursive of {
      component : rel_name list;
      dps : Ir.def_plan list;
      sdeps : rel_name list;  (* non-component inputs *)
      dred : bool;
      dred_reason : string;  (* why not, when [dred] is false *)
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

(* Per-base-relation incremental cache: bag multiplicities by canonical
   key plus the visible (convention-level) relation. Batches update both
   in O(|batch|), so applying a batch never re-deduplicates or re-diffs
   a whole base relation. *)
type base_cache = {
  bc_counts : (string, int) Hashtbl.t;
  mutable bc_vis : Relation.t;
}

type t = {
  conv : Conventions.t;
  strategy : Eval.recursion_strategy option;
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

let create ?(conv = Conventions.sql_set) ?strategy ?metrics ~db () =
  { conv; strategy; metrics; tdb = db; tviews = []; tbase = Hashtbl.create 16 }

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

let metric_gauge t name v =
  match t.metrics with None -> () | Some m -> Metrics.set_gauge m name v

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
      let counts = Hashtbl.create (1 + Relation.cardinality rel) in
      List.iter
        (fun tp ->
          let k = Tuple.key tp in
          Hashtbl.replace counts k
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
        (Relation.tuples rel);
      let bc = { bc_counts = counts; bc_vis = visible t.conv rel } in
      Hashtbl.add t.tbase r bc;
      bc

let rel_of_rows ~name (like : Relation.t) rows =
  Relation.make ~name (Relation.schema like) rows

let project_tuple ctx schema (head : head) assigns (row : I.benv) =
  Tuple.make schema
    (Array.of_list
       (List.map
          (fun a ->
            match List.assoc_opt a assigns with
            | Some tm -> I.eval_term ctx row tm
            | None ->
                fail "head attribute %s.%s is unassigned" head.head_name a)
          head.head_attrs))

let group_key ctx (full : I.benv) keys =
  String.concat ""
    (List.map
       (fun (v, a) -> V.canonical (I.eval_term ctx full (Attr (v, a))))
       keys)

(* Canonical serialization of a binding row, for exact-match deletion
   from group support tables. *)
let benv_key (row : I.benv) =
  String.concat "\x01"
    (List.map
       (fun (v, tp) -> v ^ "\x00" ^ Tuple.key tp)
       (List.sort (fun (a, _) (b, _) -> String.compare a b) row))

let remove_benv rows row =
  let k = benv_key row in
  let rec go = function
    | [] -> fail "maintenance state underflow: support row not found"
    | r :: rest -> if benv_key r = k then rest else r :: go rest
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

let occurrence_rels_coll rels (p : Ir.coll_plan) : rel_name list =
  let acc = ref [] in
  ignore
    (Ir.subst_scans_with rels
       (fun k rel ->
         acc := (k, rel) :: !acc;
         None)
       p);
  List.map snd (List.sort compare !acc)

(* The delta rule of occurrence [j] of [rels] in [p]: scans renamed with
   [rename], restricted to the disjunct holding occurrence [j]. *)
let occurrence_rule rels j rename (p : Ir.coll_plan) : Ir.coll_plan =
  let sub = Ir.subst_scans_with rels rename p in
  let d = Ir.occurrence_disjunct rels j p in
  { sub with disjuncts = [ List.nth sub.disjuncts d ] }

(* Signed derivation delta of a multilinear pipeline:
   Δf = Σ_j f(new_1…new_{j-1}, Δ_j, old_{j+1}…), each Δ_j split into its
   insertion (+1) and deletion (−1) sides. Changed relations are renamed
   per occurrence, so no scan resolves a changed name directly. *)
let signed_rows ctx (changed : (rel_name, change) Hashtbl.t) (t : Ir.t) :
    (I.benv * int) list =
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
           List.map (fun row -> (row, sign)) (Exec.exec_pipeline ctx plan)
         in
         (if side 1 rj then [] else run 1 (nm_pos rj))
         @ (if side (-1) rj then [] else run (-1) (nm_neg rj)))
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

let agg_outputs ctx conv out (head : head) keys scope_vars post assigns groups
    outs gk counts =
  let group = Option.value ~default:[] (Hashtbl.find_opt groups gk) in
  let old_outs = Option.value ~default:[] (Hashtbl.find_opt outs gk) in
  let new_outs =
    if keys <> [] && group = [] then []
    else
      let rep = match group with [] -> [] | r :: _ -> r in
      if
        List.for_all
          (fun f -> I.eval_gformula ctx ~rep ~group ~scope_vars f = B3.True)
          post
      then
        let schema = Schema.make head.head_attrs in
        [
          Tuple.make schema
            (Array.of_list
               (List.map
                  (fun a ->
                    match List.assoc_opt a assigns with
                    | Some tm ->
                        I.eval_gterm ctx ~rep ~group ~scope_vars tm
                    | None ->
                        fail "head attribute %s.%s is unassigned"
                          head.head_name a)
                  head.head_attrs));
        ]
      else []
  in
  List.iter (fun tp -> fold_count conv counts out tp (-1)) old_outs;
  List.iter (fun tp -> fold_count conv counts out tp 1) new_outs;
  if keys <> [] && group = [] then begin
    Hashtbl.remove groups gk;
    Hashtbl.remove outs gk
  end
  else Hashtbl.replace outs gk new_outs

(* Initial materialization: full pipeline runs establish derivation
   counts (which collection-level dedup would destroy) and group
   support. *)
let seed_counting ctx conv head disjs counts =
  let scratch = Delta.create () in
  List.iter
    (function
      | DProj { assigns; input } ->
          let schema = Schema.make head.head_attrs in
          List.iter
            (fun row ->
              Delta.add counts (project_tuple ctx schema head assigns row) 1)
            (Exec.exec_pipeline ctx input)
      | DAgg { input; keys; scope_vars; post; assigns; groups; outs } ->
          let rows = Exec.exec_pipeline ctx input in
          let dirty = Hashtbl.create 16 in
          if keys = [] then begin
            Hashtbl.replace groups "" rows;
            Hashtbl.replace dirty "" ()
          end
          else
            List.iter
              (fun row ->
                let gk = group_key ctx row keys in
                Hashtbl.replace groups gk
                  (Option.value ~default:[] (Hashtbl.find_opt groups gk)
                  @ [ row ]);
                Hashtbl.replace dirty gk ())
              rows;
          Hashtbl.iter
            (fun gk () ->
              agg_outputs ctx conv scratch head keys scope_vars post assigns
                groups outs gk counts)
            dirty)
    disjs;
  Relation.sort (visible_of_counts conv head counts)

(* Returns the new visible value plus the signed output delta that got
   there: the materialized result is patched with [Relation.apply_delta],
   never rebuilt from the count table, so batch cost scales with the
   delta (plus, for deletions, one cached-key filter pass). *)
let maintain_counting ctx conv head disjs counts changed old_r =
  let out = Delta.create () in
  List.iter
    (function
      | DProj { assigns; input } ->
          let schema = Schema.make head.head_attrs in
          List.iter
            (fun (row, s) ->
              fold_count conv counts out
                (project_tuple ctx schema head assigns row)
                s)
            (signed_rows ctx changed input)
      | DAgg { input; keys; scope_vars; post; assigns; groups; outs } ->
          let runs = signed_rows ctx changed input in
          let dirty = Hashtbl.create 16 in
          List.iter
            (fun (row, s) ->
              let gk = if keys = [] then "" else group_key ctx row keys in
              let cur =
                Option.value ~default:[] (Hashtbl.find_opt groups gk)
              in
              Hashtbl.replace groups gk
                (if s > 0 then cur @ [ row ] else remove_benv cur row);
              Hashtbl.replace dirty gk ())
            runs;
          Hashtbl.iter
            (fun gk () ->
              agg_outputs ctx conv out head keys scope_vars post assigns
                groups outs gk counts)
            dirty)
    disjs;
  let eff =
    List.sort
      (fun (a, _) (b, _) -> Tuple.compare a b)
      (Delta.to_list out)
  in
  let new_r = if eff = [] then old_r else Relation.apply_delta old_r eff in
  (new_r, eff)

(* ------------------------------------------------------------------ *)
(* DRed for recursive strata                                           *)
(* ------------------------------------------------------------------ *)

(* DRed (Gupta, Mumick & Subrahmanian, SIGMOD 1993) in two phases.
   Fixpoint relations are sets under every convention (both fixpoints
   dedup), so the stratum is maintained at the set level.

   Over-delete: starting from the input tuples that lost copies, mark
   every component tuple with a one-step derivation through a marked
   tuple, all other positions at their pre-batch values: changed inputs
   through their [nm_old] copies, the component under its own name (it
   still holds the old fixpoint). A candidate is one rule step over old
   values, so it already lies in the old fixpoint. Under bag conventions
   an input tuple that only lost some copies is marked too, which
   over-deletes a little more and stays sound.

   Resume: a survivor (old fixpoint minus everything marked) has a
   derivation none of whose premises was marked, so by induction on its
   depth it lies in the new fixpoint. DRed strata are multilinear, hence
   monotone, so the stratum's own fixpoint, resumed from the survivors
   over the new inputs, reaches the new least fixpoint: it re-derives and
   inserts in one pass, leaving the result in the context's IDB. *)
let maintain_dred ctx defs (dps : Ir.def_plan list)
    (stratum_changes : (rel_name * change) list) =
  let gov = I.gov ctx in
  let component = List.map (fun dp -> dp.Ir.dname) dps in
  let all = component @ List.map fst stratum_changes in
  let olds =
    List.map
      (fun dp -> (dp, List.assoc dp.Ir.dname defs, Hashtbl.create 16))
      dps
  in
  let frontier =
    ref
      (List.filter_map
         (fun (r, ch) ->
           match
             List.filter_map
               (fun (tp, n) -> if n < 0 then Some tp else None)
               ch.ch_eff
           with
           | [] -> None
           | rows -> Some (r, rel_of_rows ~name:r ch.ch_old rows))
         stratum_changes)
  in
  let rounds = ref 0 in
  let round_ok () =
    incr rounds;
    Gov.tick gov;
    Gov.iteration_allowed gov !rounds && not (Gov.stopped gov)
  in
  while !frontier <> [] && round_ok () do
    List.iter (fun (r, rel) -> I.idb_set ctx (nm_front r) rel) !frontier;
    let front = List.map fst !frontier in
    frontier :=
      List.filter_map
        (fun (dp, old, gone) ->
          let marked = ref [] in
          List.iteri
            (fun j rj ->
              if List.mem rj front then
                let plan =
                  occurrence_rule all j
                    (fun k rel ->
                      if k = j then Some (nm_front rel)
                      else if List.mem rel component then None
                      else Some (nm_old rel))
                    dp.Ir.dplan
                in
                List.iter
                  (fun tp ->
                    let k = Tuple.key tp in
                    if not (Hashtbl.mem gone k) then begin
                      Hashtbl.add gone k ();
                      marked := tp :: !marked
                    end)
                  (Relation.tuples (Exec.exec_collection ctx plan)))
            (occurrence_rels_coll all dp.Ir.dplan);
          if !marked = [] then None
          else
            let n = dp.Ir.dname in
            Some (n, rel_of_rows ~name:n old (List.rev !marked)))
        olds
  done;
  List.iter
    (fun (dp, old, gone) ->
      I.idb_set ctx dp.Ir.dname
        (Relation.select (fun tp -> not (Hashtbl.mem gone (Tuple.key tp))) old))
    olds;
  Exec.resume_stratum_plan ctx dps

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let classify_coll (plan : Ir.coll_plan) : coll_state =
  let rec build acc = function
    | [] -> Ok (List.rev acc)
    | d :: rest -> (
        match disjunct_blocker d with
        | Some why -> Error why
        | None ->
            let st =
              match d with
              | Ir.Project { input; assigns } -> DProj { assigns; input }
              | Ir.Aggregate { input; keys; scope_vars; post; assigns } ->
                  DAgg
                    {
                      input;
                      keys;
                      scope_vars;
                      post;
                      assigns;
                      groups = Hashtbl.create 64;
                      outs = Hashtbl.create 64;
                    }
            in
            build (st :: acc) rest)
  in
  match build [] plan.disjuncts with
  | Ok disjs ->
      CCounting { head = plan.head; plan; disjs; counts = Delta.create () }
  | Error why -> CRecompute { plan; reason = why }

let coll_plan_blocker (plan : Ir.coll_plan) =
  List.fold_left
    (fun acc d ->
      match acc with
      | Some _ -> acc
      | None -> (
          match d with
          | Ir.Project { input; _ } -> pipeline_blocker input
          | Ir.Aggregate _ -> Some "aggregate_in_recursion"))
    None plan.disjuncts

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
      let blocker =
        if not (Ir.seminaive_eligible component dps) then
          Some "opaque_recursive_reference"
        else
          List.fold_left
            (fun acc dp ->
              match acc with
              | Some _ -> acc
              | None -> coll_plan_blocker dp.Ir.dplan)
            None dps
      in
      SRecursive
        {
          component;
          dps;
          sdeps;
          dred = blocker = None;
          dred_reason = Option.value ~default:"" blocker;
        }

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
    Exec.compile ~conv:t.conv ?strategy:t.strategy ~db:t.tdb prog
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
          (function
            | DProj _ -> ()
            | DAgg { groups; outs; _ } ->
                Hashtbl.reset groups;
                Hashtbl.reset outs)
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
      I.prepare ~conv:t.conv ?strategy:t.strategy ?guard ~db:t.tdb v.v_prog
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
        | SRecursive { component; dps; sdeps; dred; dred_reason } ->
            if changed_dep changed sdeps then begin
              let olds =
                List.map (fun n -> (n, List.assoc n v.v_defs)) component
              in
              if dred then begin
                incr incremental;
                maintain_dred ctx v.v_defs dps
                  (List.filter_map
                     (fun d ->
                       Option.map (fun ch -> (d, ch)) (Hashtbl.find_opt changed d))
                     sdeps)
              end
              else begin
                note_fallback t v
                  (if dred_reason = "" then "recursive_fallback"
                   else dred_reason);
                Exec.exec_stratum_plan ctx (Ir.Recursive dps)
              end;
              List.iter
                (fun (n, old_r) ->
                  match I.idb_get ctx n with
                  | Some r -> record_change n old_r (Relation.sort r)
                  | None -> fail "fixpoint left %S unmaterialized" n)
                olds
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
                (fun a -> function
                  | DProj _ -> a
                  | DAgg { groups; _ } ->
                      Hashtbl.fold
                        (fun _ rows a -> a + List.length rows)
                        groups a)
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
            let k = Tuple.key tp in
            let old_c =
              Option.value ~default:0 (Hashtbl.find_opt bc.bc_counts k)
            in
            let new_c = old_c + n in
            if new_c <= 0 then Hashtbl.remove bc.bc_counts k
            else Hashtbl.replace bc.bc_counts k new_c;
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
  (* budget trips surface typed, as from [Exec.exec_program] *)
  let reports =
    try List.map (fun v -> maintain_view t v guard changed_base) t.tviews
    with Arc_guard.Error.Guard_error e -> raise (Eval.Eval_error e)
  in
  metric_gauge t "arc_ivm_state_rows" (float_of_int (state_rows t));
  reports

(* ------------------------------------------------------------------ *)
(* Differential oracle                                                 *)
(* ------------------------------------------------------------------ *)

let check t =
  List.filter_map
    (fun v ->
      let ctx, _, plan, _ =
        Exec.compile ~conv:t.conv ?strategy:t.strategy ~db:t.tdb v.v_prog
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
