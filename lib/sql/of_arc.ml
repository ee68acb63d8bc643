module A = Arc_core.Ast
module Analysis = Arc_core.Analysis
module V = Arc_value.Value
module Conventions = Arc_value.Conventions
open Ast

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* ------------------------------------------------------------------ *)
(* Terms                                                               *)
(* ------------------------------------------------------------------ *)

let rec tr_term (t : A.term) : expr =
  match t with
  | A.Const v -> E_const v
  | A.Attr (v, a) -> E_col (Some v, a)
  | A.Scalar (op, [ l; r ]) ->
      let op' =
        match op with
        | A.Add -> B_add
        | A.Sub -> B_sub
        | A.Mul -> B_mul
        | A.Div -> B_div
        | A.Mod -> B_mod
        | A.Neg -> unsupported "binary negation"
      in
      E_binop (op', tr_term l, tr_term r)
  | A.Scalar (A.Neg, [ x ]) -> E_neg (tr_term x)
  | A.Scalar _ -> unsupported "malformed scalar term"
  | A.Agg (k, A.Const (V.Int 1)) when k = Arc_value.Aggregate.Count ->
      E_count_star
  | A.Agg (k, t) -> E_agg (k, tr_term t)

let tr_cmp = function
  | A.Eq -> Ceq
  | A.Neq -> Cneq
  | A.Lt -> Clt
  | A.Leq -> Cleq
  | A.Gt -> Cgt
  | A.Geq -> Cgeq

(* ------------------------------------------------------------------ *)
(* Formulas in boolean position                                        *)
(* ------------------------------------------------------------------ *)

let rec tr_bool_formula ~conv ~schemas (f : A.formula) : cond =
  match f with
  | A.True -> C_true
  | A.Pred p -> tr_pred p
  | A.And fs -> C_and (List.map (tr_bool_formula ~conv ~schemas) fs)
  | A.Or fs -> C_or (List.map (tr_bool_formula ~conv ~schemas) fs)
  | A.Not f -> C_not (tr_bool_formula ~conv ~schemas f)
  | A.Exists scope -> C_exists (tr_boolean_scope ~conv ~schemas scope)

and tr_pred (p : A.pred) : cond =
  match p with
  | A.Cmp (op, l, r) -> C_cmp (tr_cmp op, tr_term l, tr_term r)
  | A.Is_null t -> C_is_null (tr_term t)
  | A.Not_null t -> C_is_not_null (tr_term t)
  | A.Like (t, pat) -> C_like (tr_term t, pat)

(* a quantifier scope used as a condition: SELECT 1 FROM … WHERE … with
   aggregate comparisons going to HAVING *)
and tr_boolean_scope ~conv ~schemas (scope : A.scope) : set_query =
  let from, on_assigned = tr_bindings_and_join ~conv ~schemas ~heads:[] scope in
  let conjs = A.conjuncts scope.A.body in
  let conjs =
    List.filter (fun f -> not (List.memq f on_assigned)) conjs
  in
  let post, pre =
    match scope.A.grouping with
    | None -> ([], conjs)
    | Some _ -> List.partition formula_has_agg conjs
  in
  let where =
    match pre with
    | [] -> None
    | fs -> Some (C_and (List.map (tr_bool_formula ~conv ~schemas) fs))
  in
  let having =
    match post with
    | [] -> None
    | fs -> Some (C_and (List.map (tr_bool_formula ~conv ~schemas) fs))
  in
  let group_by =
    match scope.A.grouping with
    | None | Some [] -> []
    | Some keys -> List.map (fun (v, a) -> (Some v, a)) keys
  in
  Q_select
    {
      distinct = false;
      items = [ { item_expr = E_const (V.Int 1); item_alias = Some "one" } ];
      from;
      where;
      group_by;
      having;
      order_by = [];
      limit = None;
    }

and formula_has_agg (f : A.formula) =
  match f with
  | A.Pred p -> A.pred_has_agg p
  | A.And fs | A.Or fs -> List.exists formula_has_agg fs
  | A.Not f -> formula_has_agg f
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Bindings, join annotations                                          *)
(* ------------------------------------------------------------------ *)

(* Is a nested collection correlated (does it reference variables bound
   outside itself)? *)
and correlated (c : A.collection) : bool =
  let hit = ref false in
  let rec walk_f bound f =
    match f with
    | A.True -> ()
    | A.Pred p ->
        List.iter
          (fun t ->
            List.iter
              (fun (v, _) -> if not (List.mem v bound) then hit := true)
              (A.term_vars t))
          (A.pred_terms p)
    | A.And fs | A.Or fs -> List.iter (walk_f bound) fs
    | A.Not f -> walk_f bound f
    | A.Exists s ->
        let bound' =
          List.fold_left
            (fun b (bd : A.binding) ->
              (match bd.A.source with
              | A.Nested c' -> walk_f (c'.A.head.head_name :: b) c'.A.body
              | A.Base _ -> ());
              bd.A.var :: b)
            bound s.A.bindings
        in
        walk_f bound' s.A.body
  in
  walk_f [ c.A.head.head_name ] c.A.body;
  !hit

(* returns the FROM list and the list of conjuncts consumed as ON
   conditions (physical equality against the scope body conjuncts) *)
and tr_bindings_and_join ~conv ~schemas ~heads (scope : A.scope) :
    table_ref list * A.formula list =
  (* Under Set conventions base relations are semantically sets, and a
     grouping scope makes input multiplicity observable through its
     aggregates, so base sources must be deduplicated. SQL keeps bag
     inputs; expand to SELECT DISTINCT derived tables (needs the schema
     to name the columns — no faithful translation without it). *)
  let dedup_inputs =
    conv.Conventions.collection = Conventions.Set && scope.A.grouping <> None
  in
  let source_ref (b : A.binding) : table_ref =
    match b.A.source with
    | A.Base n when dedup_inputs -> (
        match List.assoc_opt n schemas with
        | Some cols ->
            T_sub
              ( Q_select
                  {
                    distinct = true;
                    items =
                      List.map
                        (fun a ->
                          { item_expr = E_col (None, a); item_alias = Some a })
                        cols;
                    from = [ T_rel (n, None) ];
                    where = None;
                    group_by = [];
                    having = None;
                    order_by = [];
                    limit = None;
                  },
                b.A.var )
        | None ->
            unsupported
              "aggregation over base relation %s under Set conventions needs \
               its schema to deduplicate"
              n)
    | A.Base n -> T_rel (n, Some b.A.var)
    | A.Nested c ->
        if correlated c then T_lateral (tr_collection ~conv ~schemas c, b.A.var)
        else T_sub (tr_collection ~conv ~schemas c, b.A.var)
  in
  (* comma list; nested correlated sources become LATERAL joins chained
     onto the preceding item *)
  let chain refs =
    List.fold_left
      (fun acc tr ->
        match tr with
        | T_lateral (q, a) -> (
            match acc with
            | [] -> [ T_sub (q, a) ] (* uncorrelatable in SQL; best effort *)
            | last :: rest ->
                T_join (J_inner, last, T_lateral (q, a), None) :: rest)
        | tr -> tr :: acc)
      [] refs
    |> List.rev
  in
  match scope.A.join with
  | None -> (chain (List.map source_ref scope.A.bindings), [])
  | Some _ ->
      let binding_of v =
        match List.find_opt (fun (b : A.binding) -> b.A.var = v) scope.A.bindings with
        | Some b -> b
        | None -> unsupported "join annotation var %S unbound" v
      in
      (* Literal leaves become "_litN" leaves exactly as in the engines, so
         a comparison a literal consumes is placed where the engines place
         it (at the node joining the literal with the comparison's other
         side). The rewrite keeps the conjunct list's shape, so each
         prepared conjunct pairs with its original: placement reads the
         prepared one, SQL renders the original, and the literal leaf
         itself drops out of the tree. *)
      let prepared, lits = Analysis.prepare_join_literals scope in
      let is_lit v = List.mem_assoc v lits in
      let jt = Option.get prepared.A.join in
      let conjs =
        List.combine (A.conjuncts prepared.A.body) (A.conjuncts scope.A.body)
      in
      let consumed = ref [] in
      (* predicates attachable as ON conditions *)
      let scope_vars =
        List.map (fun (b : A.binding) -> b.A.var) prepared.A.bindings
      in
      let tree_vars = A.join_tree_vars jt in
      let pred_vars f =
        match f with
        | A.Pred p ->
            Some
              (List.concat_map
                 (fun t -> List.map fst (A.term_vars t))
                 (A.pred_terms p)
              |> List.filter (fun v -> List.mem v scope_vars))
        | _ -> None
      in
      let attachable f =
        match (f, pred_vars f) with
        | A.Pred p, Some vs ->
            (not (A.pred_has_agg p))
            && (not (Analysis.classify ~heads p).Analysis.is_assignment)
            && vs <> []
            && List.for_all (fun v -> List.mem v tree_vars) vs
        | _ -> false
      in
      let covers node vs =
        let nv = A.join_tree_vars node in
        List.for_all (fun v -> List.mem v nv) vs
      in
      (* Mirror the engine: each attachable conjunct acts at the *smallest*
         join-tree node covering its variables. One-sided predicates filter
         their operand before the join (a WHERE inside the operand's derived
         table); only genuinely spanning conjuncts become outer-join ON
         conditions. Hoisting a one-sided predicate into ON would change
         which rows get null-padded. Inside inner-only regions the placement
         is observationally equivalent to WHERE, so predicates are left
         unconsumed there unless an enclosing outer join makes the
         distinction matter. *)
      let rec smallest node vs =
        match node with
        | A.J_var _ | A.J_lit _ -> node
        | A.J_inner l -> (
            match List.find_opt (fun c -> covers c vs) l with
            | Some c -> smallest c vs
            | None -> node)
        | A.J_left (a, b) | A.J_full (a, b) ->
            if covers a vs then smallest a vs
            else if covers b vs then smallest b vs
            else node
      in
      let assigned node =
        List.filter_map
          (fun (f, orig) ->
            if (not (List.memq orig !consumed)) && attachable f then
              let vs = Option.get (pred_vars f) in
              if covers jt vs && smallest jt vs == node then (
                consumed := orig :: !consumed;
                Some orig)
              else None
            else None)
          conjs
      in
      let on_cond = function
        | [] -> None
        | fs -> Some (C_and (List.map (tr_bool_formula ~conv ~schemas) fs))
      in
      (* [extra]: predicates of a single-operand inner() around this leaf
         (a literal's comparison against it), applied as its pre-filter *)
      let rec build ?(extra = []) ~under_outer node : table_ref =
        match node with
        | A.J_var v when is_lit v -> unsupported "literal leaf outside inner()"
        | A.J_var v -> (
            let preds = extra @ if under_outer then assigned node else [] in
            let b = binding_of v in
            match preds with
            | [] -> (
                match source_ref b with
                | T_lateral (q, a) -> T_sub (q, a)
                | tr -> tr)
            | preds ->
                let cols =
                  match b.A.source with
                  | A.Base n -> (
                      match List.assoc_opt n schemas with
                      | Some cols -> cols
                      | None ->
                          unsupported
                            "outer-join operand %s carries a one-sided \
                             predicate and needs its schema to pre-filter"
                            n)
                  | A.Nested c -> c.A.head.head_attrs
                in
                let inner =
                  match b.A.source with
                  | A.Base n -> T_rel (n, Some v)
                  | A.Nested c -> T_sub (tr_collection ~conv ~schemas c, v)
                in
                T_sub
                  ( Q_select
                      {
                        distinct = dedup_inputs;
                        items =
                          List.map
                            (fun a ->
                              {
                                item_expr = E_col (Some v, a);
                                item_alias = Some a;
                              })
                            cols;
                        from = [ inner ];
                        where = on_cond preds;
                        group_by = [];
                        having = None;
                        order_by = [];
                        limit = None;
                      },
                    v ))
        | A.J_lit _ -> unsupported "literal leaf outside inner()"
        | A.J_inner children -> (
            let mine = if under_outer then assigned node else [] in
            let children =
              List.filter
                (function A.J_var v -> not (is_lit v) | _ -> true)
                children
            in
            match children with
            | [] -> unsupported "empty inner()"
            | [ (A.J_var _ as only) ] -> build ~extra:mine ~under_outer only
            | [ only ] ->
                if mine <> [] then
                  unsupported "predicate spans a single-operand inner()"
                else build ~under_outer only
            | first :: rest ->
                let last = List.length rest - 1 in
                let tref, _ =
                  List.fold_left
                    (fun (acc, i) child ->
                      ( T_join
                          ( J_inner,
                            acc,
                            build ~under_outer child,
                            if i = last then on_cond mine else None ),
                        i + 1 ))
                    (build ~under_outer first, 0)
                    rest
                in
                tref)
        | A.J_left (a, b) ->
            let conds = on_cond (assigned node) in
            T_join
              (J_left, build ~under_outer:true a, build ~under_outer:true b, conds)
        | A.J_full (a, b) ->
            let conds = on_cond (assigned node) in
            T_join
              (J_full, build ~under_outer:true a, build ~under_outer:true b, conds)
      in
      let tree_ref = build ~under_outer:false jt in
      (* bindings not in the tree join as comma items (a correlated one
         as a LATERAL join onto the tree) *)
      let rest =
        List.filter
          (fun (b : A.binding) -> not (List.mem b.A.var tree_vars))
          scope.A.bindings
      in
      (chain (tree_ref :: List.map source_ref rest), !consumed)

(* ------------------------------------------------------------------ *)
(* Collections                                                         *)
(* ------------------------------------------------------------------ *)

and tr_collection ?(conv = Conventions.sql_set) ?(schemas = [])
    (c : A.collection) : set_query =
  let distinct =
    match conv.Conventions.collection with
    | Conventions.Set -> true
    | Conventions.Bag -> false
  in
  let head_name = c.A.head.head_name in
  let tr_disjunct (d : A.formula) : set_query =
    let scope =
      match d with
      | A.Exists s -> s
      | f -> { A.bindings = []; grouping = None; join = None; body = f }
    in
    let from, on_assigned =
      tr_bindings_and_join ~conv ~schemas ~heads:[ head_name ] scope
    in
    let conjs = A.conjuncts scope.A.body in
    let conjs = List.filter (fun f -> not (List.memq f on_assigned)) conjs in
    (* split assignments from conditions *)
    let assignments = ref [] in
    let conditions =
      List.filter
        (fun f ->
          match f with
          | A.Pred p -> (
              match Analysis.assignment_of ~heads:[ head_name ] p with
              | Some ((_, a), t) when List.mem a c.A.head.head_attrs ->
                  if List.mem_assoc a !assignments then true
                  else (
                    assignments := !assignments @ [ (a, t) ];
                    false)
              | _ -> true)
          | _ -> true)
        conjs
    in
    let items =
      List.map
        (fun a ->
          match List.assoc_opt a !assignments with
          | Some t -> { item_expr = tr_term t; item_alias = Some a }
          | None ->
              unsupported
                "head attribute %s.%s lacks a top-level assignment predicate"
                head_name a)
        c.A.head.head_attrs
    in
    let post, pre =
      match scope.A.grouping with
      | None -> ([], conditions)
      | Some _ -> List.partition formula_has_agg conditions
    in
    let where =
      match pre with
      | [] -> None
      | fs -> Some (C_and (List.map (tr_bool_formula ~conv ~schemas) fs))
    in
    let having =
      match post with
      | [] -> None
      | fs -> Some (C_and (List.map (tr_bool_formula ~conv ~schemas) fs))
    in
    let group_by =
      match scope.A.grouping with
      | None -> []
      | Some [] ->
          (* γ∅: aggregate over the whole scope — SQL has no GROUP BY *)
          if
            List.exists (fun (_, t) -> A.term_has_agg t) !assignments
            || having <> None
          then []
          else unsupported "\xce\xb3\xe2\x88\x85 without aggregates"
      | Some keys -> List.map (fun (v, a) -> (Some v, a)) keys
    in
    Q_select
      {
        distinct;
        items;
        from;
        where;
        group_by;
        having;
        order_by = [];
        limit = None;
      }
  in
  let disjuncts = A.disjuncts (Arc_core.Canon.simplify_formula c.A.body) in
  match List.map tr_disjunct disjuncts with
  | [] -> unsupported "empty collection body"
  | q :: rest ->
      List.fold_left (fun acc q' -> Q_union (not distinct, acc, q')) q rest

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

let statement ?(conv = Conventions.sql_set) ?(schemas = []) (p : A.program) :
    statement =
  (* definitions contribute their head attributes, so grouping scopes over
     defined collections can deduplicate under Set conventions too *)
  let schemas =
    schemas
    @ List.map
        (fun (d : A.definition) ->
          (d.A.def_name, d.A.def_body.A.head.head_attrs))
        p.A.defs
  in
  let ctes =
    List.map
      (fun (d : A.definition) ->
        {
          cte_name = d.A.def_name;
          cte_cols = d.A.def_body.A.head.head_attrs;
          cte_body = tr_collection ~conv ~schemas d.A.def_body;
        })
      p.A.defs
  in
  (* mutually recursive definitions need RECURSIVE too: the first CTE
     of such a pair reads a later one *)
  let recursive = Arc_core.Depend.recursive_defs p.A.defs <> [] in
  let body =
    match p.A.main with
    | A.Coll c -> tr_collection ~conv ~schemas c
    | A.Sentence f ->
        (* Fig 9: SQL can only return a unary relation for a sentence *)
        Q_select
          {
            distinct = true;
            items = [ { item_expr = E_const (V.Int 1); item_alias = Some "holds" } ];
            from = [];
            where = Some (tr_bool_formula ~conv ~schemas f);
            group_by = [];
            having = None;
            order_by = [];
            limit = None;
          }
  in
  { with_recursive = recursive; ctes; body }

let collection ?(conv = Conventions.sql_set) ?(schemas = []) c =
  tr_collection ~conv ~schemas c
