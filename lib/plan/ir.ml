open Arc_core.Ast

(* An equi-join key: [outer] is evaluated on the probe side (rows of the
   plan built so far, plus the enclosing environment), [inner] on the build
   side (the joined unit / the sub-scope of a semi-join). *)
type key = { outer : term; inner : term }

type t =
  | One  (** The unit input: a single empty environment. *)
  | Scan of { var : var; rel : rel_name; filters : pred list; card : int option }
      (** [card] counts the relation's rows; [None] for a definition,
          whose size [Card] guesses. *)
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

(* ------------------------------------------------------------------ *)
(* Plan nodes and their children                                       *)
(* ------------------------------------------------------------------ *)

(* A program plan is a tree of three kinds of node: pipeline operators,
   disjuncts and collection heads. [children] is the one definition of a
   node's children and their order; every structural walk (sizes, stable
   ids, scan substitution, explain and analyze, the fixpoint caches)
   descends through it or through [map_children], which rebuilds a node
   in the same order. Children of [Subquery]/[Lateral] include the nested
   collection plan. *)
type node = T of t | D of disjunct_plan | C of coll_plan

let children = function
  | T (One | Scan _) -> []
  | T (Subquery { plan; _ }) -> [ C plan ]
  | T (Lateral { input; plan; _ }) -> [ T input; C plan ]
  | T (Product { left; right } | Hash_join { left; right; _ }) ->
      [ T left; T right ]
  | T (Filter { input; _ } | Residual { input; _ } | Resolve { input; _ })
  | T (Prune { input; _ }) ->
      [ T input ]
  | T (Semi { input; sub; _ }) -> [ T input; T sub ]
  | T (Append ts) -> List.map (fun t -> T t) ts
  | D (Project { input; _ } | Aggregate { input; _ }) -> [ T input ]
  | C p -> List.map (fun d -> D d) p.disjuncts

let to_t = function T t -> t | D _ | C _ -> invalid_arg "Ir.to_t"
let to_d = function D d -> d | T _ | C _ -> invalid_arg "Ir.to_d"
let to_c = function C p -> p | T _ | D _ -> invalid_arg "Ir.to_c"

(* [n] with its children replaced, in [children]'s order and kinds *)
let with_children n kids =
  match (n, kids) with
  | T (Subquery s), [ C plan ] -> T (Subquery { s with plan })
  | T (Lateral l), [ T input; C plan ] -> T (Lateral { l with input; plan })
  | T (Product _), [ T left; T right ] -> T (Product { left; right })
  | T (Hash_join j), [ T left; T right ] -> T (Hash_join { j with left; right })
  | T (Filter x), [ T input ] -> T (Filter { x with input })
  | T (Residual x), [ T input ] -> T (Residual { x with input })
  | T (Resolve x), [ T input ] -> T (Resolve { x with input })
  | T (Prune x), [ T input ] -> T (Prune { x with input })
  | T (Semi s), [ T input; T sub ] -> T (Semi { s with input; sub })
  | T (Append _), ts -> T (Append (List.map to_t ts))
  | D (Project x), [ T input ] -> D (Project { x with input })
  | D (Aggregate x), [ T input ] -> D (Aggregate { x with input })
  | C p, ds -> C { p with disjuncts = List.map to_d ds }
  | _ -> invalid_arg "Ir.with_children"

(* Rebuilds a node with [f] applied to each child, left to right (stateful
   callers such as the scan substituter count occurrences as they go).
   [f] must return a node of the kind it was given. A node whose children
   all come back physically unchanged is returned as is. *)
let map_children f n =
  let same a b =
    match (a, b) with
    | T x, T y -> x == y
    | D x, D y -> x == y
    | C x, C y -> x == y
    | _ -> false
  in
  let kids = children n in
  let kids' = List.map f kids in
  if List.for_all2 same kids kids' then n else with_children n kids'

(* preorder: a node before its children *)
let rec fold f acc n = List.fold_left (fold f) (f acc n) (children n)
let rec exists p n = p n || List.exists (exists p) (children n)

(* ------------------------------------------------------------------ *)
(* Stable node ids                                                     *)
(* ------------------------------------------------------------------ *)

(* Every node of a program plan — pipeline nodes, disjuncts, and collection
   heads, including nested sub-plans — carries a stable id: its preorder
   position under [children]. Ids are *derived*, not stored: a node's
   children occupy the id range right after it, offset by the sizes of
   their elder siblings ([node_child_ids]). The executor and the
   explain/analyze renderers number nodes with [node_child_ids] alone, so
   actuals recorded at execution time line up with the rendered tree — and
   with the estimates the optimizer made for the very same ids. Structural
   rewrites that preserve shape (notably the fixpoint's delta-scan
   substitution) preserve ids. *)

let size n = fold (fun k _ -> k + 1) 0 n
let size_coll p = size (C p)

(* Direct-children ids, in [children]'s order. *)
let node_child_ids id n =
  List.rev
    (fst
       (List.fold_left
          (fun (acc, next) c -> (next :: acc, next + size c))
          ([], id + 1) (children n)))

let program_defs (pp : program_plan) : def_plan list =
  List.concat_map
    (function Nonrecursive dp -> [ dp ] | Recursive dps -> dps)
    pp.strata

(* Base ids for a whole program: strata in order (each definition's
   collection plan), then the main plan. *)
let program_ids (pp : program_plan) : (rel_name * int) list * int option =
  let next = ref 0 in
  let take p =
    let v = !next in
    next := v + size_coll p;
    v
  in
  let defs = List.map (fun dp -> (dp.dname, take dp.dplan)) (program_defs pp) in
  let main =
    match pp.main with
    | Main_coll p -> Some (take p)
    | Main_sentence _ -> None
  in
  (defs, main)

(* The relation a collection only renames: its one disjunct projects a
   filter-free scan attribute for attribute, in the head's order. It is
   an identity rename when the scanned relation has exactly the head's
   attributes, in that order, which only the run knows. *)
let identity_rename (p : coll_plan) =
  match p.disjuncts with
  | [ Project { input = Scan { var; rel; filters = []; _ }; assigns } ]
    when assigns = List.map (fun a -> (a, Attr (var, a))) p.head.head_attrs
    ->
      Some rel
  | _ -> None

let op_name = function
  | T One -> "unit"
  | T (Scan _) -> "scan"
  | T (Subquery _) -> "subquery"
  | T (Lateral _) -> "lateral"
  | T (Product _) -> "product"
  | T (Hash_join _) -> "hash_join"
  | T (Filter _) -> "filter"
  | T (Residual _) -> "residual"
  | T (Semi { anti; _ }) -> if anti then "anti_join" else "semi_join"
  | T (Resolve _) -> "resolve"
  | T (Prune _) -> "prune"
  | T (Append _) -> "append"
  | D (Project _) -> "project"
  | D (Aggregate _) -> "hash_aggregate"
  | C _ -> "union"

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
  mutable a_iterations : int;  (* fixpoint rounds after the seed *)
  mutable a_deltas : int list;  (* per-round delta sizes, newest first *)
  mutable a_rounds_ns : int64 list;
      (* per-round fixpoint wall-clock of the head's stratum, aligned with
         [a_deltas] (the seed first), reversed *)
  mutable a_fix_ns : int64;
      (* a recursive head's fixpoint time outside every plan node: index
         probes and appends of the accumulated relation, round
         bookkeeping *)
  mutable a_renamed : bool;
      (* the head returned its scanned relation renamed, in O(1)
         ([identity_rename]); its disjunct and scan did not run *)
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
          a_fix_ns = 0L;
          a_renamed = false;
        }
      in
      Hashtbl.replace st id a;
      a

let actual_of (st : stats) id = Hashtbl.find_opt st id

let incl_of (st : stats) id =
  match actual_of st id with Some a -> a.a_incl_ns | None -> 0L

(* Q-error of an estimate against an actual: max/min of the two, both
   clamped to >= 1 so empty results stay finite. 1.0 is a perfect guess. *)
let q_error est act =
  let est = max 1 est and act = max 1 act in
  Float.of_int (max est act) /. Float.of_int (min est act)

(* all range variables syntactically referenced anywhere in a fragment —
   a safe over-approximation of the inputs it needs *)
let term_ref_vars t = List.map fst (term_vars t)
let pred_ref_vars p = List.concat_map term_ref_vars (pred_terms p)

let formula_ref_vars f =
  let open Arc_core.Ast in
  List.rev
    (fold
       (fun acc -> function
         | F (Pred p) -> List.rev_append (pred_ref_vars p) acc
         | F _ | C _ -> acc)
       [] (F f))

let key_ref_vars keys =
  List.concat_map (fun k -> term_ref_vars k.outer @ term_ref_vars k.inner) keys

let assign_ref_vars assigns =
  List.concat_map (fun (_, t) -> term_ref_vars t) assigns

(* the variables a node's own terms, predicates and formulas reference;
   its children's are not included *)
let own_ref_vars = function
  | T (Scan { filters = ps; _ } | Filter { preds = ps; _ }) ->
      List.concat_map pred_ref_vars ps
  | T (Hash_join { keys; _ }) -> key_ref_vars keys
  | T (Residual { conjs; _ }) -> List.concat_map formula_ref_vars conjs
  | T (Semi { keys; residual; _ }) ->
      key_ref_vars keys @ List.concat_map pred_ref_vars residual
  | T (Resolve { scope; _ }) -> formula_ref_vars scope.body
  | T (One | Subquery _ | Lateral _ | Product _ | Prune _ | Append _) -> []
  | D (Project { assigns; _ }) -> assign_ref_vars assigns
  | D (Aggregate { keys; post; assigns; _ }) ->
      List.map fst keys
      @ List.concat_map formula_ref_vars post
      @ assign_ref_vars assigns
  | C _ -> []

let rec ref_vars n = List.concat_map ref_vars (children n) @ own_ref_vars n

(* ------------------------------------------------------------------ *)
(* Delta substitution                                                  *)
(* ------------------------------------------------------------------ *)

(* Shared by the executor's seminaive fixpoint and the incremental view
   maintenance layer (Arc_ivm): count scan occurrences of a set of
   relations and rewrite a single occurrence to read a different relation.
   Occurrences are numbered in preorder under [children], descending into
   nested sub-plans and semi-join subtrees. *)

let delta_name n = "__delta__" ^ n

let count_scans component n =
  fold
    (fun k -> function
      | T (Scan { rel; _ }) when List.mem rel component -> k + 1
      | _ -> k)
    0 n

(* Occurrence [j] (preorder index among scans of [component] relations) is
   renamed with [rename j rel]; [None] leaves the scan untouched. The
   rewrite is shape-preserving, so stable node ids carry over. *)
let subst_scans component (rename : int -> rel_name -> rel_name option) n =
  let k = ref (-1) in
  let rec go n =
    match n with
    | T (Scan s) when List.mem s.rel component -> (
        incr k;
        match rename !k s.rel with
        | Some rel -> T (Scan { s with rel })
        | None -> n)
    | _ -> map_children go n
  in
  go n

(* The same rewrite over a bare pipeline, for callers that differentiate
   one disjunct's input rather than a whole collection plan. *)
let subst_scans_with_t component rename (t : t) : t =
  to_t (subst_scans component rename (T t))

let subst_scan component i (p : coll_plan) : coll_plan =
  to_c
    (subst_scans component
       (fun j rel -> if j = i then Some (delta_name rel) else None)
       (C p))

(* The index of the disjunct of [p] that holds occurrence [i] of
   [component], numbered as [subst_scans] numbers them. A delta rule
   for that occurrence needs only this disjunct: the others do not read
   it. *)
let occurrence_disjunct component i (p : coll_plan) : int =
  let rec go d i = function
    | x :: xs ->
        let c = count_scans component (D x) in
        if i < c then d else go (d + 1) (i - c) xs
    | [] -> invalid_arg "Ir.occurrence_disjunct"
  in
  go 0 i p.disjuncts

(* Plan-level delta substitution is sound only when every reference to a
   component relation is a plan [Scan]; references hidden inside fragments
   the reference evaluator executes as callbacks (residual formulas,
   resolve scopes, aggregate post-conditions) cannot be substituted, so
   such components run whole-definition rules instead. *)
let opaque_refs component n =
  let refs f =
    List.exists (fun r -> List.mem r component) (Arc_core.Depend.refs f)
  in
  exists
    (function
      | T (Residual { conjs; _ }) -> List.exists refs conjs
      | T (Resolve { scope; _ }) -> refs (Exists scope)
      | D (Aggregate { post; _ }) -> List.exists refs post
      | _ -> false)
    n

let seminaive_eligible component (dps : def_plan list) =
  List.for_all
    (fun dp ->
      (not (opaque_refs component (C dp.dplan)))
      &&
      (* every AST-level reference must correspond to a plan scan *)
      let ast_refs =
        List.length
          (List.filter
             (fun (n, _) -> List.mem n component)
             (Arc_core.Depend.collection_deps dp.dcoll))
      in
      count_scans component (C dp.dplan) = ast_refs)
    dps
