open Arc_core.Ast
module V = Arc_value.Value
module B3 = Arc_value.Bool3
module Conventions = Arc_value.Conventions
module Aggregate = Arc_value.Aggregate
module Relation = Arc_relation.Relation
module Tuple = Arc_relation.Tuple
module Schema = Arc_relation.Schema
module Database = Arc_relation.Database
module Analysis = Arc_core.Analysis
module External = Arc_core.External
module Obs = Arc_obs.Obs
module Gov = Arc_guard.Gov
module Err = Arc_guard.Error

exception Eval_error of Err.t

let raise_kind kind = raise (Eval_error (Err.make kind))
let fail fmt = Printf.ksprintf (fun s -> raise_kind (Err.Msg s)) fmt
let error_to_string = Err.to_string

type outcome = Rows of Relation.t | Truth of B3.t

type recursion_strategy = Naive | Seminaive

type ctx = {
  conv : Conventions.t;
  strategy : recursion_strategy;
  db : Database.t;
  idb : (string, Relation.t) Hashtbl.t;
  abstracts : (string * collection) list;
  externals : Externals.impl list;
  (* Bindings for the head attributes of the abstract relation currently
     being membership-tested (Section 2.13.2). *)
  params : ((var * attr) * V.t) list;
  (* Singleton relations for literal join-tree leaves of the scope being
     evaluated (Fig 12). *)
  lits : (var * Tuple.t) list;
  (* Trace/metrics tracer (Arc_obs); Obs.null makes every probe a no-op. *)
  tracer : Obs.t;
  (* Resource governor (Arc_guard); probed at the same operator boundaries
     the tracer instruments. Gov.default reproduces seed behavior. *)
  gov : Gov.t;
}

type benv = (var * Tuple.t) list

(* ------------------------------------------------------------------ *)
(* Terms                                                               *)
(* ------------------------------------------------------------------ *)

let scalar_apply op args =
  match (op, args) with
  | Add, [ a; b ] -> V.add a b
  | Sub, [ a; b ] -> V.sub a b
  | Mul, [ a; b ] -> V.mul a b
  | Div, [ a; b ] -> V.div a b
  | Mod, [ a; b ] -> V.modulo a b
  | Neg, [ a ] -> V.neg a
  | _ -> fail "malformed scalar application"

let rec eval_term ctx (benv : benv) = function
  | Const c -> c
  | Attr (v, a) -> (
      match List.assoc_opt v benv with
      | Some tp -> (
          try Tuple.get tp a
          with Schema.Unknown_attribute _ ->
            fail "variable %S has no attribute %S" v a)
      | None -> (
          match List.assoc_opt (v, a) ctx.params with
          | Some value -> value
          | None -> fail "unbound variable %S (attribute %S)" v a))
  | Scalar (op, ts) -> scalar_apply op (List.map (eval_term ctx benv) ts)
  | Agg (k, _) ->
      fail "aggregate %s outside a grouping evaluation"
        (Aggregate.kind_to_string k)

(* Group-aware term evaluation (Section 2.5): aggregates accumulate the
   inner term over every row of the group; other subterms are evaluated
   under the representative environment (grouping keys and outer references
   are constant within a group). When the group is empty (γ∅ over zero
   rows), references to scope variables evaluate to NULL. *)
let rec eval_gterm ctx ~rep ~group ~scope_vars t =
  match t with
  | Const c -> c
  | Attr (v, _) when group = [] && List.mem v scope_vars -> V.Null
  | Attr _ -> eval_term ctx rep t
  | Scalar (op, ts) ->
      scalar_apply op (List.map (eval_gterm ctx ~rep ~group ~scope_vars) ts)
  | Agg (k, inner) ->
      let values = List.map (fun be -> eval_term ctx be inner) group in
      Aggregate.apply ctx.conv.Conventions.agg_empty k values

(* ------------------------------------------------------------------ *)
(* Predicates                                                          *)
(* ------------------------------------------------------------------ *)

let test_cmp op c =
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Leq -> c <= 0
  | Gt -> c > 0
  | Geq -> c >= 0

let cmp_values ctx op vl vr =
  match ctx.conv.Conventions.null_logic with
  | Conventions.Three_valued -> (
      match V.cmp3 vl vr with
      | None -> B3.Unknown
      | Some c -> B3.of_bool (test_cmp op c))
  | Conventions.Two_valued -> B3.of_bool (test_cmp op (V.compare vl vr))

let eval_pred_values ctx p vals =
  match (p, vals) with
  | Cmp (op, _, _), [ vl; vr ] -> cmp_values ctx op vl vr
  | Is_null _, [ v ] -> B3.of_bool (V.is_null v)
  | Not_null _, [ v ] -> B3.of_bool (not (V.is_null v))
  | Like (_, pat), [ v ] -> (
      match V.like v pat with
      | Some b -> B3.of_bool b
      | None -> (
          match ctx.conv.Conventions.null_logic with
          | Conventions.Three_valued -> B3.Unknown
          | Conventions.Two_valued -> B3.False))
  | _ -> fail "malformed predicate"

let eval_pred ctx benv p =
  eval_pred_values ctx p (List.map (eval_term ctx benv) (pred_terms p))

(* ------------------------------------------------------------------ *)
(* Literal join-tree leaves (Fig 12)                                   *)
(* ------------------------------------------------------------------ *)

(* The pure decomposition (which comparison each literal consumes, how the
   tree is rewritten) lives in [Analysis.prepare_join_literals], shared
   with the plan lowering; this wrapper only materializes the singleton
   tuples the evaluator binds. *)
let prepare_literals (scope : scope) =
  let scope', lits = Analysis.prepare_join_literals scope in
  ( scope',
    List.map
      (fun (v, c) ->
        let schema = Schema.make [ "val" ] in
        (v, Tuple.make schema [| c |]))
      lits )

(* ------------------------------------------------------------------ *)
(* Scope enumeration                                                   *)
(* ------------------------------------------------------------------ *)

(* keep the first [n] elements — governed truncation clips enumerations *)
let take n l =
  if n <= 0 then []
  else
    let rec go k = function
      | [] -> []
      | x :: rest -> if k = 0 then [] else x :: go (k - 1) rest
    in
    go n l

let rec source_rows ctx benv src =
  Gov.tick ctx.gov;
  let rows = source_rows_raw ctx benv src in
  if Obs.enabled ctx.tracer then
    Obs.count ctx.tracer "tuples_scanned" (List.length rows);
  if not (Gov.active ctx.gov) then rows
  else
    let n = List.length rows in
    let allowed = Gov.charge_bindings ctx.gov n in
    if allowed >= n then rows else take allowed rows

and source_rows_raw ctx benv = function
  | Base name -> (
      (* under set semantics, stored relations are interpreted as sets:
         duplicates in the physical bag collapse (paper, Section 2.7 and
         footnote 4 — inputs are sets, so the full join is a set) *)
      let interp r =
        match ctx.conv.Conventions.collection with
        | Conventions.Set -> Relation.tuples (Relation.dedup r)
        | Conventions.Bag -> Relation.tuples r
      in
      match List.assoc_opt name ctx.lits with
      | Some tp -> [ tp ]
      | None -> (
          match Hashtbl.find_opt ctx.idb name with
          | Some r -> Relation.tuples r (* IDB relations are already sets *)
          | None -> (
              match Database.find_opt ctx.db name with
              | Some r -> interp r
              | None ->
                  fail "relation %S is not finite (external or abstract)" name)))
  | Nested c -> Relation.tuples (eval_collection ctx benv c)

and source_is_finite ctx = function
  | Nested _ -> true
  | Base name ->
      List.mem_assoc name ctx.lits
      || Hashtbl.mem ctx.idb name
      || Database.mem ctx.db name

and source_schema ctx = function
  | Base name -> (
      match List.assoc_opt name ctx.lits with
      | Some tp -> Schema.attrs (Tuple.schema tp)
      | None -> (
          match Hashtbl.find_opt ctx.idb name with
          | Some r -> Schema.attrs (Relation.schema r)
          | None -> (
              match Database.find_opt ctx.db name with
              | Some r -> Schema.attrs (Relation.schema r)
              | None -> fail "cannot determine schema of %S" name)))
  | Nested c -> c.head.head_attrs

(* --- join-annotation trees ----------------------------------------- *)

(* The ON/WHERE split and condition-to-node attachment are shared with the
   plan lowering through [Analysis] (split_join_conditions, smallest_cover,
   node_join_preds), so both engines decompose an annotated scope
   identically. *)
and split_join_conditions ~heads (scope : scope) =
  Analysis.split_join_conditions ~heads scope

and enum_join_tree ctx benv (scope : scope) ~attached : benv list =
  Gov.tick ctx.gov;
  let sp = Obs.enter ctx.tracer "join" in
  let tree = Option.get scope.join in
  let node_preds node = Analysis.node_join_preds tree scope ~attached node in
  let binding_of v =
    match List.find_opt (fun b -> b.var = v) scope.bindings with
    | Some b -> b
    | None -> fail "join annotation references unbound variable %S" v
  in
  let null_row_of_var v =
    let attrs = source_schema ctx (binding_of v).source in
    let schema = Schema.make attrs in
    Tuple.make schema (Array.make (List.length attrs) V.Null)
  in
  let null_pad node : benv =
    List.map (fun v -> (v, null_row_of_var v)) (join_tree_vars node)
  in
  let check preds (row : benv) =
    List.for_all (fun p -> eval_pred ctx (row @ benv) p = B3.True) preds
  in
  let rec eval node : benv list =
    let mine = node_preds node in
    match node with
    | J_var v ->
        let rows =
          List.map
            (fun tp -> [ (v, tp) ])
            (source_rows ctx benv (binding_of v).source)
        in
        let kept = List.filter (check mine) rows in
        if Obs.enabled ctx.tracer then begin
          Obs.add sp "candidates" (List.length rows);
          Obs.add sp "survivors" (List.length kept)
        end;
        kept
    | J_lit _ -> fail "unexpanded literal leaf"
    | J_inner l ->
        let rows =
          List.fold_left
            (fun acc child ->
              let crows = eval child in
              List.concat_map (fun r -> List.map (fun c -> r @ c) crows) acc)
            [ [] ] l
        in
        let kept = List.filter (check mine) rows in
        if Obs.enabled ctx.tracer then begin
          Obs.add sp "candidates" (List.length rows);
          Obs.add sp "survivors" (List.length kept)
        end;
        kept
    | J_left (a, b) ->
        let ra = eval a and rb = eval b in
        List.concat_map
          (fun x ->
            let matches =
              List.filter_map
                (fun y ->
                  let row = x @ y in
                  if check mine row then Some row else None)
                rb
            in
            if matches = [] then [ x @ null_pad b ] else matches)
          ra
    | J_full (a, b) ->
        let ra = eval a and rb = eval b in
        let matched_b = Hashtbl.create 16 in
        let left_part =
          List.concat_map
            (fun x ->
              let matches =
                List.concat
                  (List.mapi
                     (fun i y ->
                       let row = x @ y in
                       if check mine row then (
                         Hashtbl.replace matched_b i ();
                         [ row ])
                       else [])
                     rb)
              in
              if matches = [] then [ x @ null_pad b ] else matches)
            ra
        in
        let right_part =
          List.concat
            (List.mapi
               (fun i y -> if Hashtbl.mem matched_b i then [] else [ null_pad a @ y ])
               rb)
        in
        left_part @ right_part
  in
  let tree_rows = eval tree in
  (* bindings not mentioned in the tree are implicit inner factors,
     evaluated laterally after the tree *)
  let missing =
    List.filter
      (fun b ->
        source_is_finite ctx b.source
        && not (List.mem b.var (join_tree_vars tree)))
      scope.bindings
  in
  let out =
    List.concat_map
      (fun r ->
        List.fold_left
          (fun acc b ->
            List.concat_map
              (fun (row : benv) ->
                List.map
                  (fun tp -> (b.var, tp) :: row)
                  (source_rows ctx (row @ benv) b.source))
              acc)
          [ r ] missing)
      tree_rows
  in
  if Obs.enabled ctx.tracer then Obs.set sp "rows_out" (Obs.Int (List.length out));
  Obs.leave ctx.tracer sp;
  out

(* --- deferred (external / abstract) bindings ------------------------ *)

and resolve_deferred ctx benv (scope : scope) rows deferred : benv list =
  if deferred = [] then rows
  else begin
    let sp = Obs.enter ctx.tracer "deferred" in
    let out = resolve_deferred_raw ctx benv scope rows deferred in
    if Obs.enabled ctx.tracer then begin
      Obs.set sp "bindings" (Obs.Int (List.length deferred));
      Obs.set sp "rows_in" (Obs.Int (List.length rows));
      Obs.set sp "resolutions" (Obs.Int (List.length out))
    end;
    Obs.leave ctx.tracer sp;
    out
  end

and resolve_deferred_raw ctx benv (scope : scope) rows deferred : benv list =
  let conjs = conjuncts scope.body in
  List.fold_left
    (fun rows b ->
      let name =
        match b.source with Base n -> n | Nested _ -> assert false
      in
      List.concat_map
        (fun (row : benv) ->
          (* seed equations x.attr = term, term evaluable now *)
          let seed_of = function
            | Pred (Cmp (Eq, Attr (v, a), t)) when v = b.var -> Some (a, t)
            | Pred (Cmp (Eq, t, Attr (v, a))) when v = b.var -> Some (a, t)
            | _ -> None
          in
          let seeds =
            List.filter_map
              (fun f ->
                match seed_of f with
                | Some (a, t)
                  when (not (term_has_agg t))
                       && List.for_all (fun (v', _) -> v' <> b.var) (term_vars t)
                  -> (
                    try Some (a, eval_term ctx (row @ benv) t)
                    with Eval_error _ -> None)
                | _ -> None)
              conjs
          in
          let seeds =
            List.fold_left
              (fun acc (a, v) ->
                if List.mem_assoc a acc then acc else (a, v) :: acc)
              [] seeds
            |> List.rev
          in
          match Externals.find ctx.externals name with
          | Some impl -> (
              let completed =
                try impl.Externals.complete seeds
                with Externals.External_error { relation; cause } ->
                  raise_kind
                    (Err.External_failure { relation; attempts = 1; cause })
              in
              match completed with
              | Some assignments ->
                  let attrs = impl.Externals.decl.External.ext_attrs in
                  let schema = Schema.make attrs in
                  List.map
                    (fun assignment ->
                      let tp =
                        Tuple.make schema
                          (Array.of_list
                             (List.map (fun a -> List.assoc a assignment) attrs))
                      in
                      ((b.var, tp) :: row : benv))
                    assignments
              | None ->
                  raise_kind
                    (Err.Unbound_external
                       { relation = name; bound = List.map fst seeds }))
          | None -> (
              match List.assoc_opt name ctx.abstracts with
              | Some def ->
                  let attrs = def.head.head_attrs in
                  if List.for_all (fun a -> List.mem_assoc a seeds) attrs then
                    let params =
                      List.map
                        (fun a ->
                          ((def.head.head_name, a), List.assoc a seeds))
                        attrs
                    in
                    let ctx' = { ctx with params = params @ ctx.params } in
                    if eval_formula ctx' (row @ benv) def.body = B3.True then
                      let schema = Schema.make attrs in
                      let tp =
                        Tuple.make schema
                          (Array.of_list
                             (List.map (fun a -> List.assoc a seeds) attrs))
                      in
                      [ ((b.var, tp) :: row : benv) ]
                    else []
                  else
                    raise_kind
                      (Err.Unbound_abstract
                         { relation = name; bound = List.map fst seeds })
              | None -> raise_kind (Err.Unknown_relation name)))
        rows)
    rows deferred

(* --- full scope pipeline -------------------------------------------- *)

(* Returns the residual scope (literal leaves expanded, attached join
   conditions removed from the body) together with the enumerated rows,
   each extending [benv]. *)
and enum_scope ctx benv (scope : scope) ~heads : scope * benv list =
  Gov.tick ctx.gov;
  let sp = Obs.enter ctx.tracer "scope" in
  let scope, lit_rows = prepare_literals scope in
  let ctx = { ctx with lits = lit_rows @ ctx.lits } in
  let deferred =
    List.filter (fun b -> not (source_is_finite ctx b.source)) scope.bindings
  in
  let residual_scope, rows =
    match scope.join with
    | Some _ ->
        let attached, residual = split_join_conditions ~heads scope in
        let rows = enum_join_tree ctx benv scope ~attached in
        ({ scope with body = And residual }, rows)
    | None ->
        let rows =
          List.fold_left
            (fun acc b ->
              if not (source_is_finite ctx b.source) then acc
              else
                List.concat_map
                  (fun (row : benv) ->
                    List.map
                      (fun tp -> (b.var, tp) :: row)
                      (source_rows ctx (row @ benv) b.source))
                  acc)
            [ ([] : benv) ]
            scope.bindings
        in
        (scope, rows)
  in
  let out = resolve_deferred ctx benv scope rows deferred in
  if Obs.enabled ctx.tracer then begin
    Obs.set sp "bindings" (Obs.Int (List.length scope.bindings));
    Obs.set sp "deferred" (Obs.Int (List.length deferred));
    Obs.set sp "rows_out" (Obs.Int (List.length out))
  end;
  Obs.leave ctx.tracer sp;
  (residual_scope, out)

(* ------------------------------------------------------------------ *)
(* Formula evaluation (boolean contexts)                               *)
(* ------------------------------------------------------------------ *)

and eval_formula ctx benv f : B3.t =
  match f with
  | True -> B3.True
  | Pred p -> eval_pred ctx benv p
  | And fs -> B3.and_list (List.map (eval_formula ctx benv) fs)
  | Or fs -> B3.or_list (List.map (eval_formula ctx benv) fs)
  | Not f -> B3.not_ (eval_formula ctx benv f)
  | Exists scope -> eval_scope_bool ctx benv scope

and eval_scope_bool ctx benv scope : B3.t =
  let scope, rows = enum_scope ctx benv scope ~heads:[] in
  match scope.grouping with
  | None ->
      B3.of_bool
        (List.exists
           (fun (row : benv) ->
             eval_formula ctx (row @ benv) scope.body = B3.True)
           rows)
  | Some keys ->
      let scope_vars = List.map (fun b -> b.var) scope.bindings in
      let pre, post =
        List.partition
          (fun f -> not (formula_has_agg f))
          (conjuncts scope.body)
      in
      let groups = group_rows ctx benv keys pre rows in
      B3.of_bool
        (List.exists
           (fun (rep, group) ->
             List.for_all
               (fun f ->
                 eval_gformula ctx ~rep ~group ~scope_vars f = B3.True)
               post)
           groups)

(* Filters rows by the pre-aggregation conditions and partitions them by
   the grouping keys. Each group carries a representative environment
   (the outer environment when the γ∅ group is empty). Rows in groups are
   full environments (row @ benv). *)
and group_rows ctx benv keys pre rows : (benv * benv list) list =
  Gov.tick ctx.gov;
  let sp = Obs.enter ctx.tracer "group" in
  let groups = group_rows_raw ctx benv keys pre rows in
  if Obs.enabled ctx.tracer then begin
    Obs.set sp "rows_in" (Obs.Int (List.length rows));
    Obs.set sp "keys" (Obs.Int (List.length keys));
    Obs.set sp "buckets" (Obs.Int (List.length groups))
  end;
  Obs.leave ctx.tracer sp;
  groups

and group_rows_raw ctx benv keys pre rows : (benv * benv list) list =
  let rows =
    List.filter
      (fun (row : benv) ->
        List.for_all (fun f -> eval_formula ctx (row @ benv) f = B3.True) pre)
      rows
  in
  if keys = [] then
    let full = List.map (fun r -> r @ benv) rows in
    [ ((match full with [] -> benv | r :: _ -> r), full) ]
  else begin
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun row ->
        let kv =
          List.map (fun (v, a) -> eval_term ctx (row @ benv) (Attr (v, a))) keys
        in
        let k = String.concat "" (List.map V.canonical kv) in
        match Hashtbl.find_opt tbl k with
        | Some rs -> Hashtbl.replace tbl k (rs @ [ row @ benv ])
        | None ->
            order := k :: !order;
            Hashtbl.replace tbl k [ row @ benv ])
      rows;
    List.rev_map
      (fun k ->
        let group = Hashtbl.find tbl k in
        (List.hd group, group))
      !order
  end

and eval_gformula ctx ~rep ~group ~scope_vars f : B3.t =
  match f with
  | True -> B3.True
  | Pred p ->
      eval_pred_values ctx p
        (List.map (eval_gterm ctx ~rep ~group ~scope_vars) (pred_terms p))
  | And fs ->
      B3.and_list (List.map (eval_gformula ctx ~rep ~group ~scope_vars) fs)
  | Or fs ->
      B3.or_list (List.map (eval_gformula ctx ~rep ~group ~scope_vars) fs)
  | Not f -> B3.not_ (eval_gformula ctx ~rep ~group ~scope_vars f)
  | Exists scope -> eval_scope_bool ctx rep scope

(* ------------------------------------------------------------------ *)
(* Collection evaluation                                               *)
(* ------------------------------------------------------------------ *)

and eval_collection ctx benv (c : collection) : Relation.t =
  let name = c.head.head_name in
  Gov.tick ctx.gov;
  if not (Gov.enter_collection ctx.gov) then
    (* depth budget tripped under [`Truncate]: this nesting level
       contributes nothing *)
    Relation.empty ~name c.head.head_attrs
  else
    let sp = Obs.enter ctx.tracer ("collection:" ^ name) in
    match eval_collection_raw ctx benv c with
    | r ->
        if Obs.enabled ctx.tracer then
          Obs.set sp "rows_emitted" (Obs.Int (Relation.cardinality r));
        Obs.leave ctx.tracer sp;
        Gov.leave_collection ctx.gov;
        r
    | exception Eval_error e ->
        Obs.leave ctx.tracer sp;
        Gov.leave_collection ctx.gov;
        (* attribute the failure to the collection being evaluated; nested
           failures accumulate a chain of contexts *)
        raise (Eval_error (Err.in_collection name e))
    | exception Err.Guard_error e ->
        Obs.leave ctx.tracer sp;
        Gov.leave_collection ctx.gov;
        raise (Eval_error (Err.in_collection name e))
    | exception e ->
        Obs.leave ctx.tracer sp;
        Gov.leave_collection ctx.gov;
        raise e

and eval_collection_raw ctx benv (c : collection) : Relation.t =
  let schema = Schema.make c.head.head_attrs in
  let head_name = c.head.head_name in
  let eval_disjunct d =
    let scope =
      match d with
      | Exists s -> s
      | f -> { bindings = []; grouping = None; join = None; body = f }
    in
    let scope, rows = enum_scope ctx benv scope ~heads:[ head_name ] in
    (* Extract assignment predicates for the head. They may sit at any
       positive existential depth within the disjunct (the nested
       semijoin-style formulation of Section 2.7 puts [Q.A = r.A] inside the
       inner scope); an extracted predicate is replaced by [True] so the
       residual formula can be evaluated as a condition. A second assignment
       to the same attribute becomes the constraint [t0 = t]. *)
    let assignments = Hashtbl.create 8 in
    let rec extract f =
      match f with
      | Pred p -> (
          match Analysis.assignment_of ~heads:[ head_name ] p with
          | Some ((_, a), t) when List.mem a c.head.head_attrs -> (
              match Hashtbl.find_opt assignments a with
              | None ->
                  Hashtbl.add assignments a t;
                  True
              | Some t0 when not (equal_term t0 t) -> Pred (Cmp (Eq, t0, t))
              | Some _ -> True)
          | _ -> f)
      | And fs -> And (List.map extract fs)
      | Exists s -> Exists { s with body = extract s.body }
      | True | Or _ | Not _ -> f
    in
    let residual = Arc_core.Canon.simplify_formula (extract scope.body) in
    let conditions = conjuncts residual in
    let assignment_of_attr a =
      match Hashtbl.find_opt assignments a with
      | Some t -> t
      | None ->
          raise_kind (Err.Head_unassigned { head = head_name; attr = a })
    in
    match scope.grouping with
    | None ->
        List.filter_map
          (fun (row : benv) ->
            let full = row @ benv in
            if
              List.for_all
                (fun f -> eval_formula ctx full f = B3.True)
                conditions
            then
              Some
                (Tuple.make schema
                   (Array.of_list
                      (List.map
                         (fun a -> eval_term ctx full (assignment_of_attr a))
                         c.head.head_attrs)))
            else None)
          rows
    | Some keys ->
        let scope_vars = List.map (fun b -> b.var) scope.bindings in
        let pre, post =
          List.partition (fun f -> not (formula_has_agg f)) conditions
        in
        let groups = group_rows ctx benv keys pre rows in
        List.filter_map
          (fun (rep, group) ->
            if
              List.for_all
                (fun f ->
                  eval_gformula ctx ~rep ~group ~scope_vars f = B3.True)
                post
            then
              Some
                (Tuple.make schema
                   (Array.of_list
                      (List.map
                         (fun a ->
                           eval_gterm ctx ~rep ~group ~scope_vars
                             (assignment_of_attr a))
                         c.head.head_attrs)))
            else None)
          groups
  in
  let body = Arc_core.Canon.simplify_formula c.body in
  let tuples = List.concat_map eval_disjunct (disjuncts body) in
  let tuples =
    if not (Gov.active ctx.gov) then tuples
    else
      let n = List.length tuples in
      let allowed = Gov.charge_rows ctx.gov n in
      if allowed >= n then tuples else take allowed tuples
  in
  let r = Relation.make ~name:head_name schema tuples in
  match ctx.conv.Conventions.collection with
  | Conventions.Set -> Relation.dedup r
  | Conventions.Bag -> r

(* ------------------------------------------------------------------ *)
(* Definitions: stratified least-fixed-point computation               *)
(* ------------------------------------------------------------------ *)

let rec compute_idb ctx (defs : definition list) =
  let scc_list, adj = Arc_core.Depend.sccs defs in
  let find_def n = List.find (fun d -> d.def_name = n) defs in
  List.iter
    (fun component ->
      let recursive = Arc_core.Depend.is_recursive adj component in
      if not recursive then
        let d = find_def (List.hd component) in
        Hashtbl.replace ctx.idb d.def_name (eval_collection ctx [] d.def_body)
      else begin
        List.iter
          (fun n ->
            List.iter
              (fun (m, negative) ->
                if negative && List.mem m component then
                  raise_kind (Err.Unstratifiable { name = n; dep = m }))
              (List.assoc n adj))
          component;
        List.iter
          (fun n ->
            let d = find_def n in
            Hashtbl.replace ctx.idb n
              (Relation.empty ~name:n d.def_body.head.head_attrs))
          component;
        match ctx.strategy with
        | Naive -> naive_fixpoint ctx find_def component
        | Seminaive -> seminaive_fixpoint ctx find_def component
      end)
    scc_list

and naive_fixpoint ctx find_def component =
  let sp = Obs.enter ctx.tracer "fixpoint:naive" in
  if Obs.enabled ctx.tracer then
    Obs.set sp "stratum" (Obs.Str (String.concat "," component));
  let changed = ref true in
  let iterations = ref 0 in
  while !changed do
    incr iterations;
    Gov.tick ctx.gov;
    changed := false;
    (* a tripped budget in [`Truncate] mode leaves the partial fixpoint *)
    if Gov.iteration_allowed ctx.gov !iterations && not (Gov.stopped ctx.gov)
    then begin
      let isp = Obs.enter ctx.tracer "iteration" in
      List.iter
        (fun n ->
          let d = find_def n in
          let before =
            if Obs.enabled ctx.tracer then
              Relation.cardinality (Hashtbl.find ctx.idb n)
            else 0
          in
          let next =
            Relation.dedup
              (Relation.union (Hashtbl.find ctx.idb n)
                 (eval_collection ctx [] d.def_body))
          in
          if Obs.enabled ctx.tracer then
            Obs.set isp ("delta:" ^ n)
              (Obs.Int (Relation.cardinality next - before));
          if not (Relation.equal_set next (Hashtbl.find ctx.idb n)) then begin
            Hashtbl.replace ctx.idb n next;
            changed := true
          end)
        component;
      Obs.leave ctx.tracer isp
    end
  done;
  Obs.set sp "iterations" (Obs.Int !iterations);
  Obs.leave ctx.tracer sp

(* Semi-naive evaluation: each round re-derives only through tuples that are
   new since the previous round. For every occurrence of a binding to a
   relation of the same SCC, a body variant is evaluated in which exactly
   that occurrence ranges over the delta; the union of the variants, minus
   the tuples already known, is the next delta. *)
and seminaive_fixpoint ctx find_def component =
  let delta_name n = "__delta__" ^ n in
  (* count/substitute occurrences of component bindings, preorder *)
  let count_occurrences body =
    let k = ref 0 in
    let rec walk_f = function
      | True | Pred _ -> ()
      | And fs | Or fs -> List.iter walk_f fs
      | Not f -> walk_f f
      | Exists sc ->
          List.iter
            (fun b ->
              match b.source with
              | Base m -> if List.mem m component then incr k
              | Nested c -> walk_f c.body)
            sc.bindings;
          walk_f sc.body
    in
    walk_f body;
    !k
  in
  let substitute body i =
    let k = ref (-1) in
    let rec walk_f f =
      match f with
      | True | Pred _ -> f
      | And fs -> And (List.map walk_f fs)
      | Or fs -> Or (List.map walk_f fs)
      | Not f -> Not (walk_f f)
      | Exists sc ->
          let bindings =
            List.map
              (fun b ->
                match b.source with
                | Base m when List.mem m component ->
                    incr k;
                    if !k = i then { b with source = Base (delta_name m) }
                    else b
                | Base _ -> b
                | Nested c ->
                    { b with source = Nested { c with body = walk_f c.body } })
              sc.bindings
          in
          Exists { sc with bindings; body = walk_f sc.body }
    in
    walk_f body
  in
  let sp = Obs.enter ctx.tracer "fixpoint:seminaive" in
  if Obs.enabled ctx.tracer then
    Obs.set sp "stratum" (Obs.Str (String.concat "," component));
  (* round 0: recursive refs are empty, the plain evaluation seeds delta *)
  let ssp = Obs.enter ctx.tracer "seed" in
  List.iter
    (fun n ->
      let d = find_def n in
      let seed = Relation.dedup (eval_collection ctx [] d.def_body) in
      Hashtbl.replace ctx.idb n seed;
      Hashtbl.replace ctx.idb (delta_name n) seed;
      if Obs.enabled ctx.tracer then
        Obs.set ssp ("delta:" ^ n) (Obs.Int (Relation.cardinality seed)))
    component;
  Obs.leave ctx.tracer ssp;
  let iterations = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr iterations;
    Gov.tick ctx.gov;
    if
      (not (Gov.iteration_allowed ctx.gov !iterations))
      || Gov.stopped ctx.gov
    then continue_ := false
    else begin
    let isp = Obs.enter ctx.tracer "iteration" in
    let new_deltas =
      List.map
        (fun n ->
          let d = find_def n in
          let occurrences = count_occurrences d.def_body.body in
          let derived =
            List.init occurrences (fun i ->
                eval_collection ctx []
                  { d.def_body with body = substitute d.def_body.body i })
          in
          let full = Hashtbl.find ctx.idb n in
          let fresh =
            List.fold_left
              (fun acc r ->
                Relation.union acc
                  (Relation.minus (Relation.dedup r) full))
              (Relation.empty ~name:n d.def_body.head.head_attrs)
              derived
          in
          (n, Relation.dedup fresh))
        component
    in
    (* commit all deltas simultaneously *)
    List.iter
      (fun (n, fresh) ->
        Hashtbl.replace ctx.idb n
          (Relation.dedup (Relation.union (Hashtbl.find ctx.idb n) fresh)))
      new_deltas;
    List.iter
      (fun (n, fresh) -> Hashtbl.replace ctx.idb (delta_name n) fresh)
      new_deltas;
    if Obs.enabled ctx.tracer then
      List.iter
        (fun (n, fresh) ->
          Obs.set isp ("delta:" ^ n) (Obs.Int (Relation.cardinality fresh)))
        new_deltas;
    Obs.leave ctx.tracer isp;
    if List.for_all (fun (_, fresh) -> Relation.is_empty fresh) new_deltas
    then continue_ := false
    end
  done;
  Obs.set sp "iterations" (Obs.Int !iterations);
  Obs.leave ctx.tracer sp;
  List.iter (fun n -> Hashtbl.remove ctx.idb (delta_name n)) component

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* Builds a context with abstracts registered and the IDB still empty; the
   caller decides how the safe definitions are materialized (the reference
   fixpoint below, or the plan executor via [Internal]). *)
let prepare ?(conv = Conventions.sql_set) ?(externals = Externals.standard)
    ?(strategy = Seminaive) ?(tracer = Obs.null) ?guard ~db (prog : program) =
  let gov = match guard with Some g -> g | None -> Gov.default () in
  let aenv =
    Analysis.env
      ~schemas:
        (List.map
           (fun n -> (n, Schema.attrs (Relation.schema (Database.find db n))))
           (Database.names db))
      ~externals:(Externals.decls externals) ()
  in
  let safeties = Analysis.program_safety ~env:aenv prog in
  let safe, unsafe =
    List.partition
      (fun (d : definition) ->
        match List.assoc_opt d.def_name safeties with
        | Some Analysis.Safe -> true
        | _ -> false)
      prog.defs
  in
  let ctx =
    {
      conv;
      strategy;
      db;
      idb = Hashtbl.create 16;
      abstracts = List.map (fun d -> (d.def_name, d.def_body)) unsafe;
      externals;
      params = [];
      lits = [];
      tracer;
      gov;
    }
  in
  (ctx, safe)

let make_ctx ?conv ?externals ?strategy ?tracer ?guard ~db (prog : program) =
  let ctx, safe = prepare ?conv ?externals ?strategy ?tracer ?guard ~db prog in
  let tracer = ctx.tracer in
  if safe <> [] then begin
    let sp = Obs.enter tracer "definitions" in
    (* budget trips between collection evaluations (fixpoint bookkeeping)
       surface as Guard_error; convert them like eval_collection does *)
    (try compute_idb ctx safe
     with Err.Guard_error e ->
       Obs.leave tracer sp;
       raise (Eval_error e));
    Obs.leave tracer sp
  end;
  ctx

let run ?conv ?externals ?strategy ?tracer ?guard ~db (prog : program) =
  try
    let ctx = make_ctx ?conv ?externals ?strategy ?tracer ?guard ~db prog in
    match prog.main with
    | Coll c -> Rows (eval_collection ctx [] c)
    | Sentence f -> Truth (eval_formula ctx [] f)
  with
  | Err.Guard_error e -> raise (Eval_error e)
  | V.Type_error m ->
      (* ill-typed data meets an operator: a typed failure, not a crash *)
      raise (Eval_error { Err.kind = Err.Msg ("type error: " ^ m); context = [] })

let run_rows ?conv ?externals ?strategy ?tracer ?guard ~db prog =
  match run ?conv ?externals ?strategy ?tracer ?guard ~db prog with
  | Rows r -> r
  | Truth _ -> fail "expected a collection result, got a sentence"

let run_truth ?conv ?externals ?strategy ?tracer ?guard ~db prog =
  match run ?conv ?externals ?strategy ?tracer ?guard ~db prog with
  | Truth t -> t
  | Rows _ -> fail "expected a sentence result, got a collection"

let eval_collection_standalone ?conv ?externals ?tracer ?guard ~db c =
  run_rows ?conv ?externals ?tracer ?guard ~db { defs = []; main = Coll c }

(* ------------------------------------------------------------------ *)
(* Internal surface for the plan executor (Arc_engine.Exec)            *)
(* ------------------------------------------------------------------ *)

module Internal = struct
  type nonrec ctx = ctx
  type nonrec benv = benv

  let prepare = prepare
  let conv ctx = ctx.conv
  let strategy ctx = ctx.strategy
  let gov ctx = ctx.gov
  let db ctx = ctx.db
  let idb_set ctx name r = Hashtbl.replace ctx.idb name r
  let idb_get ctx name = Hashtbl.find_opt ctx.idb name
  let idb_remove ctx name = Hashtbl.remove ctx.idb name
  let eval_term = eval_term
  let eval_gterm = eval_gterm
  let eval_pred = eval_pred
  let eval_pred_values = eval_pred_values
  let eval_formula = eval_formula
  let eval_gformula = eval_gformula
  let source_rows = source_rows
  let resolve_deferred = resolve_deferred
  let take = take
end
