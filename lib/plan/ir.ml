open Arc_core.Ast

(* An equi-join key: [outer] is evaluated on the probe side (rows of the
   plan built so far, plus the enclosing environment), [inner] on the build
   side (the joined unit / the sub-scope of a semi-join). *)
type key = { outer : term; inner : term }

type t =
  | One  (** The unit input: a single empty environment. *)
  | Scan of { var : var; rel : rel_name; filters : pred list; card : int }
  | Subquery of { var : var; plan : coll_plan }
      (** Uncorrelated nested collection: materialized once per scope. *)
  | Lateral of { input : t; var : var; plan : coll_plan }
      (** Correlated nested collection: re-evaluated per input row. *)
  | Product of { left : t; right : t }
  | Hash_join of { left : t; right : t; keys : key list }
  | Filter of { input : t; preds : pred list }
  | Residual of { input : t; conjs : formula list }
      (** Conditions with no specialized operator (disjunctions, complex
          quantified subformulas); evaluated by the reference formula
          evaluator per row. *)
  | Semi of {
      anti : bool;
      input : t;
      sub : t;
      sub_vars : var list;
      keys : key list;
      residual : pred list;
    }  (** Decorrelated [Exists] / [Not (Exists …)] condition. *)
  | Resolve of { input : t; binding : binding; scope : scope }
      (** Deferred external/abstract binding, resolved from seed equations
          in the (pre-extraction) scope body. *)
  | Prune of { input : t; keep : var list }
  | Append of t list
      (** Bag union of pipelines binding the same variable set; the RANF
          translation of outer-join annotations (matched branch plus
          NULL-padded unmatched branches), concatenated before any
          downstream aggregation so groups span all branches. *)

and disjunct_plan =
  | Project of { input : t; assigns : (attr * term) list }
  | Aggregate of {
      input : t;
      keys : grouping;
      scope_vars : var list;
      post : formula list;
      assigns : (attr * term) list;
    }

and coll_plan = { head : head; disjuncts : disjunct_plan list }

type def_plan = { dname : rel_name; dcoll : collection; dplan : coll_plan }

type stratum = Nonrecursive of def_plan | Recursive of def_plan list

type main_plan = Main_coll of coll_plan | Main_sentence of formula

type program_plan = { strata : stratum list; main : main_plan }

(* ------------------------------------------------------------------ *)
(* Structural helpers                                                  *)
(* ------------------------------------------------------------------ *)

let rec bound_vars = function
  | One -> []
  | Scan { var; _ } | Subquery { var; _ } -> [ var ]
  | Lateral { input; var; _ } -> var :: bound_vars input
  | Product { left; right } | Hash_join { left; right; _ } ->
      bound_vars right @ bound_vars left
  | Filter { input; _ } | Residual { input; _ } | Semi { input; _ } ->
      bound_vars input
  | Resolve { input; binding; _ } -> binding.var :: bound_vars input
  | Prune { keep; _ } -> keep
  | Append ts -> ( match ts with [] -> [] | t :: _ -> bound_vars t)

let sat_mul a b =
  let cap = 1_000_000_000 in
  if a <= 0 || b <= 0 then 1 else if a > cap / b then cap else a * b

let sat_add a b =
  let cap = 1_000_000_000 in
  if a > cap - b then cap else a + b

let rec estimate = function
  | One -> 1
  | Scan { card; filters; _ } ->
      max 1 (card lsr min 4 (List.length filters))
  | Subquery _ -> 32
  | Lateral { input; _ } -> sat_mul (estimate input) 8
  | Product { left; right } -> sat_mul (estimate left) (estimate right)
  | Hash_join { left; right; keys } ->
      max 1 (sat_mul (estimate left) (estimate right) / (1 lsl min 12 (4 * List.length keys)))
  | Filter { input; preds } -> max 1 (estimate input lsr min 4 (List.length preds))
  | Residual { input; _ } | Semi { input; _ } -> max 1 (estimate input lsr 1)
  | Resolve { input; _ } | Prune { input; _ } -> estimate input
  | Append ts -> max 1 (List.fold_left (fun acc t -> sat_add acc (estimate t)) 0 ts)

let estimate_disjunct = function
  | Project { input; _ } -> estimate input
  | Aggregate { input; keys; _ } ->
      if keys = [] then 1 else max 1 (estimate input / 4)

let estimate_coll p =
  List.fold_left (fun acc d -> acc + estimate_disjunct d) 0 p.disjuncts

(* ------------------------------------------------------------------ *)
(* Stable node ids                                                     *)
(* ------------------------------------------------------------------ *)

(* Every node of a program plan — pipeline nodes, disjuncts, and collection
   heads, including nested sub-plans — carries a stable id: its preorder
   position in a canonical traversal. Ids are *derived*, not stored: a
   node's children occupy the id range right after it, offset by the sizes
   of their elder siblings. The executor and the explain/analyze renderers
   walk plans with the same arithmetic, so actuals recorded at execution
   time line up with the rendered tree — and with the estimates the
   optimizer made for the very same ids. Structural rewrites that preserve
   shape (notably the fixpoint's delta-scan substitution) preserve ids. *)

let rec size = function
  | One | Scan _ -> 1
  | Subquery { plan; _ } -> 1 + size_coll plan
  | Lateral { input; plan; _ } -> 1 + size input + size_coll plan
  | Product { left; right } | Hash_join { left; right; _ } ->
      1 + size left + size right
  | Filter { input; _ } | Residual { input; _ } | Resolve { input; _ }
  | Prune { input; _ } ->
      1 + size input
  | Semi { input; sub; _ } -> 1 + size input + size sub
  | Append ts -> 1 + List.fold_left (fun acc t -> acc + size t) 0 ts

and size_disjunct = function
  | Project { input; _ } | Aggregate { input; _ } -> 1 + size input

and size_coll p =
  1 + List.fold_left (fun acc d -> acc + size_disjunct d) 0 p.disjuncts

(* Direct-children ids, in canonical (preorder) order. Children of
   [Subquery]/[Lateral] include the nested collection plan. *)
let child_ids id = function
  | One | Scan _ -> []
  | Subquery _ -> [ id + 1 ]
  | Lateral { input; _ } -> [ id + 1; id + 1 + size input ]
  | Product { left; _ } | Hash_join { left; _ } -> [ id + 1; id + 1 + size left ]
  | Filter _ | Residual _ | Resolve _ | Prune _ -> [ id + 1 ]
  | Semi { input; _ } -> [ id + 1; id + 1 + size input ]
  | Append ts ->
      List.rev
        (fst
           (List.fold_left
              (fun (acc, next) t -> (next :: acc, next + size t))
              ([], id + 1) ts))

let disjunct_child_ids id = function Project _ | Aggregate _ -> [ id + 1 ]

let coll_child_ids id p =
  List.rev
    (fst
       (List.fold_left
          (fun (acc, next) d -> (next :: acc, next + size_disjunct d))
          ([], id + 1) p.disjuncts))

(* Base ids for a whole program: strata in order (each definition's
   collection plan), then the main plan. *)
let program_ids (pp : program_plan) : (rel_name * int) list * int option =
  let counter = ref 0 in
  let take n =
    let v = !counter in
    counter := !counter + n;
    v
  in
  let defs =
    List.concat_map
      (function
        | Nonrecursive dp -> [ (dp.dname, take (size_coll dp.dplan)) ]
        | Recursive dps ->
            List.map (fun dp -> (dp.dname, take (size_coll dp.dplan))) dps)
      pp.strata
  in
  let main =
    match pp.main with
    | Main_coll p -> Some (take (size_coll p))
    | Main_sentence _ -> None
  in
  (defs, main)

let op_name = function
  | One -> "unit"
  | Scan _ -> "scan"
  | Subquery _ -> "subquery"
  | Lateral _ -> "lateral"
  | Product _ -> "product"
  | Hash_join _ -> "hash_join"
  | Filter _ -> "filter"
  | Residual _ -> "residual"
  | Semi { anti; _ } -> if anti then "anti_join" else "semi_join"
  | Resolve _ -> "resolve"
  | Prune _ -> "prune"
  | Append _ -> "append"

let disjunct_op_name = function
  | Project _ -> "project"
  | Aggregate _ -> "hash_aggregate"

(* ------------------------------------------------------------------ *)
(* Per-node runtime actuals (EXPLAIN ANALYZE)                          *)
(* ------------------------------------------------------------------ *)

(* Filled in by the executor when it runs with a stats table; accumulated
   across invocations (fixpoint iterations, per-row laterals), so [a_rows]
   is the total number of rows the node emitted over the whole run. *)
type actual = {
  mutable a_invocations : int;
  mutable a_rows : int;
  mutable a_incl_ns : int64;  (* inclusive wall-clock, children included *)
  mutable a_build : int;  (* hash-table build-side rows *)
  mutable a_probe : int;  (* probe-side rows *)
  mutable a_matches : int;  (* probe hits that produced output *)
  mutable a_iterations : int;  (* fixpoint rounds (collection heads) *)
  mutable a_deltas : int list;  (* per-iteration delta sizes, reversed *)
  mutable a_rounds_ns : int64 list;
      (* per-round fixpoint wall-clock of the head's stratum, aligned with
         [a_deltas] (the seminaive seed first), reversed *)
}

type stats = (int, actual) Hashtbl.t

let fresh_stats () : stats = Hashtbl.create 64

let touch (st : stats) id =
  match Hashtbl.find_opt st id with
  | Some a -> a
  | None ->
      let a =
        {
          a_invocations = 0;
          a_rows = 0;
          a_incl_ns = 0L;
          a_build = 0;
          a_probe = 0;
          a_matches = 0;
          a_iterations = 0;
          a_deltas = [];
          a_rounds_ns = [];
        }
      in
      Hashtbl.replace st id a;
      a

let actual_of (st : stats) id = Hashtbl.find_opt st id

(* Q-error of an estimate against an actual: max/min of the two, both
   clamped to >= 1 so empty results stay finite. 1.0 is a perfect guess. *)
let q_error est act =
  let est = max 1 est and act = max 1 act in
  Float.of_int (max est act) /. Float.of_int (min est act)

(* all range variables syntactically referenced anywhere in a fragment —
   a safe over-approximation of the inputs it needs *)
let term_ref_vars t = List.map fst (term_vars t)
let pred_ref_vars p = List.concat_map term_ref_vars (pred_terms p)

let rec formula_ref_vars = function
  | True -> []
  | Pred p -> pred_ref_vars p
  | And fs | Or fs -> List.concat_map formula_ref_vars fs
  | Not f -> formula_ref_vars f
  | Exists s ->
      List.concat_map
        (fun b ->
          match b.source with
          | Base _ -> []
          | Nested c -> formula_ref_vars c.body)
        s.bindings
      @ formula_ref_vars s.body

let rec plan_ref_vars = function
  | One -> []
  | Scan { filters; _ } -> List.concat_map pred_ref_vars filters
  | Subquery { plan; _ } -> coll_plan_ref_vars plan
  | Lateral { input; plan; _ } ->
      plan_ref_vars input @ coll_plan_ref_vars plan
  | Product { left; right } -> plan_ref_vars left @ plan_ref_vars right
  | Hash_join { left; right; keys } ->
      plan_ref_vars left @ plan_ref_vars right
      @ List.concat_map
          (fun k -> term_ref_vars k.outer @ term_ref_vars k.inner)
          keys
  | Filter { input; preds } ->
      plan_ref_vars input @ List.concat_map pred_ref_vars preds
  | Residual { input; conjs } ->
      plan_ref_vars input @ List.concat_map formula_ref_vars conjs
  | Semi { input; sub; keys; residual; _ } ->
      plan_ref_vars input @ plan_ref_vars sub
      @ List.concat_map
          (fun k -> term_ref_vars k.outer @ term_ref_vars k.inner)
          keys
      @ List.concat_map pred_ref_vars residual
  | Resolve { input; scope; _ } ->
      plan_ref_vars input @ formula_ref_vars scope.body
  | Prune { input; _ } -> plan_ref_vars input
  | Append ts -> List.concat_map plan_ref_vars ts

and disjunct_ref_vars = function
  | Project { input; assigns } ->
      plan_ref_vars input @ List.concat_map (fun (_, t) -> term_ref_vars t) assigns
  | Aggregate { input; keys; post; assigns; _ } ->
      plan_ref_vars input
      @ List.map fst keys
      @ List.concat_map formula_ref_vars post
      @ List.concat_map (fun (_, t) -> term_ref_vars t) assigns

and coll_plan_ref_vars p = List.concat_map disjunct_ref_vars p.disjuncts

(* ------------------------------------------------------------------ *)
(* Delta substitution                                                  *)
(* ------------------------------------------------------------------ *)

(* Shared by the executor's seminaive fixpoint and the incremental view
   maintenance layer (Arc_ivm): count scan occurrences of a set of
   relations and rewrite a single occurrence to read a different relation.
   The traversal order only needs to be self-consistent between
   [count_scans] and [subst_scan_with]; both use the same preorder,
   descending into nested sub-plans and semi-join subtrees. *)

let delta_name n = "__delta__" ^ n

let rec count_scans component (t : t) : int =
  match t with
  | One -> 0
  | Scan { rel; _ } -> if List.mem rel component then 1 else 0
  | Subquery { plan; _ } -> count_scans_coll component plan
  | Lateral { input; plan; _ } ->
      count_scans component input + count_scans_coll component plan
  | Product { left; right } | Hash_join { left; right; _ } ->
      count_scans component left + count_scans component right
  | Filter { input; _ } | Residual { input; _ } | Resolve { input; _ }
  | Prune { input; _ } ->
      count_scans component input
  | Semi { input; sub; _ } ->
      count_scans component input + count_scans component sub
  | Append ts ->
      List.fold_left (fun acc t -> acc + count_scans component t) 0 ts

and count_scans_disjunct component = function
  | Project { input; _ } | Aggregate { input; _ } -> count_scans component input

and count_scans_coll component p =
  List.fold_left
    (fun acc d -> acc + count_scans_disjunct component d)
    0 p.disjuncts

(* Occurrence [j] (preorder index among scans of [component] relations) is
   renamed with [rename j rel]; [None] leaves the scan untouched. The
   rewrite is shape-preserving, so stable node ids carry over. Returns the
   pipeline and collection rewriters, which share one occurrence
   counter. *)
let substituter component (rename : int -> rel_name -> rel_name option) =
  let k = ref (-1) in
  let rec go_t (t : t) : t =
    match t with
    | One -> t
    | Scan s when List.mem s.rel component -> (
        incr k;
        match rename !k s.rel with
        | Some rel -> Scan { s with rel }
        | None -> t)
    | Scan _ -> t
    | Subquery s -> Subquery { s with plan = go_coll s.plan }
    | Lateral l -> Lateral { l with input = go_t l.input; plan = go_coll l.plan }
    | Product { left; right } -> Product { left = go_t left; right = go_t right }
    | Hash_join j -> Hash_join { j with left = go_t j.left; right = go_t j.right }
    | Filter f -> Filter { f with input = go_t f.input }
    | Residual r -> Residual { r with input = go_t r.input }
    | Resolve r -> Resolve { r with input = go_t r.input }
    | Prune p -> Prune { p with input = go_t p.input }
    | Semi s -> Semi { s with input = go_t s.input; sub = go_t s.sub }
    | Append ts -> Append (List.map go_t ts)
  and go_disjunct = function
    | Project pr -> Project { pr with input = go_t pr.input }
    | Aggregate ag -> Aggregate { ag with input = go_t ag.input }
  and go_coll p = { p with disjuncts = List.map go_disjunct p.disjuncts } in
  (go_t, go_coll)

let subst_scans_with component rename (p : coll_plan) : coll_plan =
  snd (substituter component rename) p

(* Same traversal over a bare pipeline, for callers that differentiate one
   disjunct's input rather than a whole collection plan. *)
let subst_scans_with_t component rename (t : t) : t =
  fst (substituter component rename) t

let subst_scan component i (p : coll_plan) : coll_plan =
  subst_scans_with component
    (fun j rel -> if j = i then Some (delta_name rel) else None)
    p

(* The index of the disjunct of [p] that holds occurrence [i] of
   [component], numbered as [subst_scans_with] numbers them. A delta rule
   for that occurrence needs only this disjunct: the others do not read
   it. *)
let occurrence_disjunct component i (p : coll_plan) : int =
  let rec go d i = function
    | x :: xs ->
        let c = count_scans_disjunct component x in
        if i < c then d else go (d + 1) (i - c) xs
    | [] -> invalid_arg "Ir.occurrence_disjunct"
  in
  go 0 i p.disjuncts

(* Plan-level delta substitution is sound only when every reference to a
   component relation is a plan [Scan]; references hidden inside fragments
   the reference evaluator executes as callbacks (residual formulas,
   resolve scopes, aggregate post-conditions) cannot be substituted, so
   such components run the naive iteration instead. *)
let mentions_component component deps =
  List.exists (fun (n, _) -> List.mem n component) deps

let rec opaque_refs component (t : t) : bool =
  let formula_refs f =
    mentions_component component
      (Arc_core.Depend.formula_deps ~neg:false ~grouped:false [] f)
  in
  match t with
  | One -> false
  | Scan { filters; _ } -> List.exists (fun p -> formula_refs (Pred p)) filters
  | Subquery { plan; _ } -> opaque_refs_coll component plan
  | Lateral { input; plan; _ } ->
      opaque_refs component input || opaque_refs_coll component plan
  | Product { left; right } | Hash_join { left; right; _ } ->
      opaque_refs component left || opaque_refs component right
  | Filter { input; _ } | Prune { input; _ } -> opaque_refs component input
  | Residual { input; conjs } ->
      List.exists formula_refs conjs || opaque_refs component input
  | Resolve { input; scope; _ } ->
      formula_refs (Exists scope) || opaque_refs component input
  | Semi { input; sub; _ } ->
      opaque_refs component input || opaque_refs component sub
  | Append ts -> List.exists (opaque_refs component) ts

and opaque_refs_coll component p =
  List.exists
    (fun d ->
      match d with
      | Project { input; _ } -> opaque_refs component input
      | Aggregate { input; post; _ } ->
          opaque_refs component input
          || List.exists
               (fun f ->
                 mentions_component component
                   (Arc_core.Depend.formula_deps ~neg:false ~grouped:false [] f))
               post)
    p.disjuncts

let seminaive_eligible component (dps : def_plan list) =
  List.for_all
    (fun dp ->
      (not (opaque_refs_coll component dp.dplan))
      &&
      (* every AST-level reference must correspond to a plan scan *)
      let ast_refs =
        List.length
          (List.filter
             (fun (n, _) -> List.mem n component)
             (Arc_core.Depend.collection_deps dp.dcoll))
      in
      count_scans_coll component dp.dplan = ast_refs)
    dps
