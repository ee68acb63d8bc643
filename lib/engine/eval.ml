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
module Gov = Arc_guard.Gov
module Err = Arc_guard.Error

exception Eval_error = Err.Guard_error

let raise_kind kind = raise (Eval_error (Err.make kind))
let fail fmt = Printf.ksprintf (fun s -> raise_kind (Err.Msg s)) fmt
let error_to_string = Err.to_string

type outcome = Rows of Relation.t | Truth of B3.t

type ctx = {
  conv : Conventions.t;
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
  (* Resource governor (Arc_guard); probed at every operator boundary
     (scan, scope, join, group, collection, fixpoint round).
     Gov.default reproduces seed behavior. *)
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

(* What a base name reads, in this order: a join literal's row, a
   definition's relation, a stored relation. *)
let find_base ctx name =
  match List.assoc_opt name ctx.lits with
  | Some tp -> Some (`Derived (Relation.make (Tuple.schema tp) [ tp ]))
  | None -> (
      match Hashtbl.find_opt ctx.idb name with
      | Some r -> Some (`Derived r)
      | None -> Option.map (fun r -> `Stored r) (Database.find_opt ctx.db name))

(* The rows of a source, as the relation holding them (a stored or IDB
   relation is returned as is, not copied); governed truncation keeps a
   prefix. *)
let rec source_rows ctx benv src =
  Gov.tick ctx.gov;
  let rows = source_rows_raw ctx benv src in
  if not (Gov.active ctx.gov) then rows
  else
    Relation.take (Gov.charge_bindings ctx.gov (Relation.cardinality rows)) rows

and source_rows_raw ctx benv = function
  | Base name -> (
      match find_base ctx name with
      | Some (`Stored r) -> (
          (* under set semantics, stored relations are interpreted as
             sets: duplicates in the physical bag collapse (paper, Section
             2.7 and footnote 4 — inputs are sets, so the full join is a
             set) *)
          match ctx.conv.Conventions.collection with
          | Conventions.Set -> Relation.dedup r
          | Conventions.Bag -> r)
      | Some (`Derived r) -> r (* IDB relations are already sets *)
      | None -> fail "relation %S is not finite (external or abstract)" name)
  | Nested c -> eval_collection ctx benv c

(* [(v, row) :: extra] for each row of a source, in order *)
and bind_rows v rows extra =
  List.init (Relation.cardinality rows) (fun i ->
      (v, Relation.get rows i) :: extra)

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
          bind_rows v (source_rows ctx benv (binding_of v).source) []
        in
        List.filter (check mine) rows
    | J_lit _ -> fail "unexpanded literal leaf"
    | J_inner l ->
        let rows =
          List.fold_left
            (fun acc child ->
              let crows = eval child in
              List.concat_map (fun r -> List.map (fun c -> r @ c) crows) acc)
            [ [] ] l
        in
        List.filter (check mine) rows
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
  List.concat_map
    (fun r ->
      List.fold_left
        (fun acc b ->
          List.concat_map
            (fun (row : benv) ->
              bind_rows b.var (source_rows ctx (row @ benv) b.source) row)
            acc)
        [ r ] missing)
    tree_rows

(* --- deferred (external / abstract) bindings ------------------------ *)

and resolve_deferred ctx benv (scope : scope) rows deferred : benv list =
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
                    bind_rows b.var (source_rows ctx (row @ benv) b.source)
                      row)
                  acc)
            [ ([] : benv) ]
            scope.bindings
        in
        (scope, rows)
  in
  ( residual_scope,
    if deferred = [] then rows
    else resolve_deferred ctx benv scope rows deferred )

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
    match eval_collection_raw ctx benv c with
    | r ->
        Gov.leave_collection ctx.gov;
        r
    | exception Eval_error e ->
        Gov.leave_collection ctx.gov;
        (* attribute the failure to the collection being evaluated; nested
           failures accumulate a chain of contexts *)
        raise (Eval_error (Err.in_collection name e))
    | exception e ->
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

(* The least fixed point, computed literally: every round re-evaluates
   each definition of the stratum against the relations as they stand and
   adds what it derives, until a round adds nothing. The plan engine's
   delta rules are checked against this loop, not against a second copy
   of themselves. *)
let naive_fixpoint ctx find_def component =
  let changed = ref true in
  let iterations = ref 0 in
  while !changed do
    incr iterations;
    Gov.tick ctx.gov;
    changed := false;
    (* a tripped budget in [`Truncate] mode leaves the partial fixpoint *)
    if Gov.iteration_allowed ctx.gov !iterations && not (Gov.stopped ctx.gov)
    then begin
      List.iter
        (fun n ->
          let d = find_def n in
          let next =
            Relation.dedup
              (Relation.union (Hashtbl.find ctx.idb n)
                 (eval_collection ctx [] d.def_body))
          in
          if not (Relation.equal_set next (Hashtbl.find ctx.idb n)) then begin
            Hashtbl.replace ctx.idb n next;
            changed := true
          end)
        component
    end
  done

let compute_idb ctx (defs : definition list) =
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
        naive_fixpoint ctx find_def component
      end)
    scc_list

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* Builds a context with abstracts registered and the IDB still empty; the
   caller decides how the safe definitions are materialized (the reference
   fixpoint below, or the plan executor via [Internal]). *)
let prepare ?(conv = Conventions.sql_set) ?(externals = Externals.standard)
    ?guard ~db (prog : program) =
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
      db;
      idb = Hashtbl.create 16;
      abstracts = List.map (fun d -> (d.def_name, d.def_body)) unsafe;
      externals;
      params = [];
      lits = [];
      gov;
    }
  in
  (ctx, safe)

let run ?conv ?externals ?guard ~db (prog : program) =
  try
    let ctx, safe = prepare ?conv ?externals ?guard ~db prog in
    compute_idb ctx safe;
    match prog.main with
    | Coll c -> Rows (eval_collection ctx [] c)
    | Sentence f -> Truth (eval_formula ctx [] f)
  with
  | V.Type_error m ->
      (* ill-typed data meets an operator: a typed failure, not a crash *)
      raise (Eval_error { Err.kind = Err.Msg ("type error: " ^ m); context = [] })

let run_rows ?conv ?externals ?guard ~db prog =
  match run ?conv ?externals ?guard ~db prog with
  | Rows r -> r
  | Truth _ -> fail "expected a collection result, got a sentence"

let run_truth ?conv ?externals ?guard ~db prog =
  match run ?conv ?externals ?guard ~db prog with
  | Truth t -> t
  | Rows _ -> fail "expected a sentence result, got a collection"

let eval_collection_standalone ?conv ?externals ?guard ~db c =
  run_rows ?conv ?externals ?guard ~db { defs = []; main = Coll c }

(* ------------------------------------------------------------------ *)
(* Internal surface for the plan executor (Arc_engine.Exec)            *)
(* ------------------------------------------------------------------ *)

module Internal = struct
  type nonrec ctx = ctx
  type nonrec benv = benv

  let prepare = prepare
  let conv ctx = ctx.conv
  let gov ctx = ctx.gov
  let db ctx = ctx.db
  let idb_set ctx name r = Hashtbl.replace ctx.idb name r
  let idb_get ctx name = Hashtbl.find_opt ctx.idb name
  let idb_remove ctx name = Hashtbl.remove ctx.idb name
  let eval_term = eval_term
  let eval_gterm = eval_gterm
  let eval_pred = eval_pred
  let eval_pred_values = eval_pred_values
  let cmp_values = cmp_values
  let eval_formula = eval_formula
  let eval_gformula = eval_gformula
  let source_rows = source_rows

  let base_schema ctx name =
    Option.map
      (function `Stored r | `Derived r -> Relation.schema r)
      (find_base ctx name)

  let resolve_deferred = resolve_deferred
end
