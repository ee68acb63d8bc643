open Ast
module A = Arc_core.Ast
module V = Arc_value.Value
module Aggregate = Arc_value.Aggregate

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

type ctx = {
  mutable schemas : (string * string list) list;  (* base relations + CTEs *)
  mutable fresh : int;
}

let fresh ctx prefix =
  ctx.fresh <- ctx.fresh + 1;
  Printf.sprintf "%s%d" prefix ctx.fresh

(* visible aliases with their attributes, innermost first *)
type scope = (string * string list) list

let alias_attrs (scope : scope) alias = List.assoc_opt alias scope

let resolve_unqual (scope : scope) col =
  match
    List.find_opt (fun (_, attrs) -> List.mem col attrs) scope
  with
  | Some (alias, _) -> alias
  | None -> unsupported "cannot resolve unqualified column %S" col

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* [extras] accumulates lateral bindings introduced by scalar subqueries
   (Section 2.12: every single-valued head aggregate becomes a lateral
   nested collection). *)
let rec tr_expr ctx (scope : scope) extras e : A.term =
  match e with
  | E_const v -> A.Const v
  | E_col (Some t, c) -> A.Attr (t, c)
  | E_col (None, c) -> A.Attr (resolve_unqual scope c, c)
  | E_binop (op, l, r) ->
      let op' =
        match op with
        | B_add -> A.Add
        | B_sub -> A.Sub
        | B_mul -> A.Mul
        | B_div -> A.Div
        | B_mod -> A.Mod
      in
      A.Scalar (op', [ tr_expr ctx scope extras l; tr_expr ctx scope extras r ])
  | E_neg e -> A.Scalar (A.Neg, [ tr_expr ctx scope extras e ])
  | E_agg (k, e) -> A.Agg (k, tr_expr ctx scope extras e)
  | E_count_star -> A.Agg (Aggregate.Count, A.Const (V.Int 1))
  | E_scalar_subquery q -> tr_scalar_subquery ctx scope extras q

and tr_scalar_subquery ctx scope extras q =
  match q with
  | Q_select s when s.group_by = [] && s.having = None -> (
      match s.items with
      | [ it ] when select_item_has_agg it ->
          (* single-valued aggregate: lateral nested collection with γ∅ *)
          let head = fresh ctx "X" in
          let attr = item_name 0 it in
          let inner_extras = ref [] in
          let bindings, jtree, conds, inner_scope =
            tr_from ctx scope s.from
          in
          let where =
            match s.where with
            | None -> []
            | Some c -> [ tr_cond ctx inner_scope ~extras:inner_extras c ]
          in
          let agg_term = tr_expr ctx inner_scope inner_extras it.item_expr in
          let body =
            A.And (conds @ where @ [ A.Pred (A.Cmp (A.Eq, A.Attr (head, attr), agg_term)) ])
          in
          let inner : A.collection =
            {
              head = { head_name = head; head_attrs = [ attr ] };
              body =
                A.Exists
                  {
                    bindings = bindings @ !inner_extras;
                    grouping = Some [];
                    join = jtree;
                    body;
                  };
            }
          in
          let var = fresh ctx "x" in
          extras := !extras @ [ { A.var; source = A.Nested inner } ];
          A.Attr (var, attr)
      | _ ->
          unsupported
            "scalar subqueries without a single aggregate item cannot be \
             translated faithfully (empty input would need NULL)")
  | _ -> unsupported "scalar subquery with set operations or grouping"

and select_item_has_agg it =
  let rec go = function
    | E_agg _ | E_count_star -> true
    | E_binop (_, l, r) -> go l || go r
    | E_neg e -> go e
    | _ -> false
  in
  go it.item_expr

(* ------------------------------------------------------------------ *)
(* FROM                                                                *)
(* ------------------------------------------------------------------ *)

(* Translates a FROM list into bindings, an optional join annotation (only
   when outer joins occur), the ON conditions (as body conjuncts; the engine
   re-attaches them to the annotation nodes), and the extended scope. *)
and tr_from ctx (scope : scope) (from : table_ref list) :
    A.binding list * A.join_tree option * A.formula list * scope =
  let has_outer tr =
    let rec go = function
      | T_join ((J_left | J_full), _, _, _) -> true
      | T_join (_, l, r, _) -> go l || go r
      | _ -> false
    in
    go tr
  in
  let any_outer = List.exists has_outer from in
  let bindings = ref [] in
  let conds = ref [] in
  let scope_ref = ref scope in
  let rec has_lateral = function
    | T_lateral _ -> true
    | T_join (_, l, r, _) -> has_lateral l || has_lateral r
    | _ -> false
  in
  (* [None] for a LATERAL item: it is bound outside the join annotation,
     as an inner factor after the tree, since a tree leaf is evaluated
     before the rows it correlates with exist *)
  let rec item tr : A.join_tree option =
    match tr with
    | T_rel (name, alias) ->
        let a = Option.value alias ~default:name in
        let attrs =
          match List.assoc_opt name ctx.schemas with
          | Some attrs -> attrs
          | None -> []
        in
        bindings := !bindings @ [ { A.var = a; source = A.Base name } ];
        scope_ref := (a, attrs) :: !scope_ref;
        Some (A.J_var a)
    | T_sub (q, a) | T_lateral (q, a) ->
        let c = tr_set_query_inner ctx !scope_ref q in
        bindings := !bindings @ [ { A.var = a; source = A.Nested c } ];
        scope_ref := (a, c.A.head.head_attrs) :: !scope_ref;
        (match tr with T_lateral _ -> None | _ -> Some (A.J_var a))
    | T_join ((J_left | J_full), l, r, _) when has_lateral l || has_lateral r ->
        unsupported "LATERAL under an outer join"
    | T_join (kind, l, r, on) -> (
        let jl = item l in
        let jr = item r in
        let on_conjs =
          match on with
          | Some c -> A.conjuncts (tr_cond ctx !scope_ref c)
          | None -> []
        in
        conds := !conds @ on_conjs;
        let flatten = function A.J_inner l -> l | j -> [ j ] in
        match (jl, jr) with
        | None, j | j, None -> j
        | Some jl, Some jr -> (
          match kind with
          | J_inner | J_cross -> Some (A.J_inner (flatten jl @ flatten jr))
          | J_left | J_full ->
              (* An ON conjunct referencing only the preserved side would be
                 re-attached by the engine as a filter on that operand, which
                 changes the semantics. The paper's Fig 12 solution: when the
                 conjunct compares against a constant, put a literal leaf on
                 the opposite side so the predicate spans the join. *)
              let lv = A.join_tree_vars jl and rv = A.join_tree_vars jr in
              let conj_vars f =
                match f with
                | A.Pred p ->
                    List.concat_map
                      (fun t -> List.map fst (A.term_vars t))
                      (A.pred_terms p)
                    |> List.filter (fun v -> List.mem v lv || List.mem v rv)
                | _ -> []
              in
              let const_of = function
                | A.Pred (A.Cmp (_, _, A.Const c)) | A.Pred (A.Cmp (_, A.Const c, _))
                  -> Some c
                | _ -> None
              in
              let lits_right = ref [] and lits_left = ref [] in
              List.iter
                (fun f ->
                  let vs = conj_vars f in
                  let only side = vs <> [] && List.for_all (fun v -> List.mem v side) vs in
                  let preserved_only =
                    match kind with
                    | J_left -> only lv
                    | J_full -> only lv || only rv
                    | _ -> false
                  in
                  if preserved_only then
                    match const_of f with
                    | Some c ->
                        if only lv then lits_right := !lits_right @ [ A.J_lit c ]
                        else lits_left := !lits_left @ [ A.J_lit c ]
                    | None ->
                        unsupported
                          "outer-join ON condition on the preserved side \
                           without a constant comparand")
                on_conjs;
              let wrap lits j =
                if lits = [] then j else A.J_inner (lits @ flatten j)
              in
              let jl = wrap !lits_left jl and jr = wrap !lits_right jr in
              Some (if kind = J_left then A.J_left (jl, jr) else A.J_full (jl, jr))))
  in
  let trees = List.filter_map item from in
  let jtree =
    if not any_outer then None
    else
      match trees with
      | [ t ] -> Some t
      | ts -> Some (A.J_inner (List.concat_map (function A.J_inner l -> l | j -> [ j ]) ts))
  in
  (!bindings, jtree, !conds, !scope_ref)

(* ------------------------------------------------------------------ *)
(* Conditions                                                          *)
(* ------------------------------------------------------------------ *)

and tr_cond ctx (scope : scope) ?(extras = ref []) c : A.formula =
  match c with
  | C_true -> A.True
  | C_cmp (op, l, r) ->
      let op' =
        match op with
        | Ceq -> A.Eq
        | Cneq -> A.Neq
        | Clt -> A.Lt
        | Cleq -> A.Leq
        | Cgt -> A.Gt
        | Cgeq -> A.Geq
      in
      A.Pred
        (A.Cmp (op', tr_expr ctx scope extras l, tr_expr ctx scope extras r))
  | C_and cs -> A.And (List.map (tr_cond ctx scope ~extras) cs)
  | C_or cs -> A.Or (List.map (tr_cond ctx scope ~extras) cs)
  | C_not (C_in (e, q)) ->
      (* Section 2.10 / Eq 17: NOT IN becomes NOT EXISTS with explicit
         NULL checks, replicating SQL's three-valued behavior *)
      let e' = tr_expr ctx scope extras e in
      A.Not (tr_membership ctx scope e' q ~null_checks:true)
  | C_not c -> A.Not (tr_cond ctx scope ~extras c)
  | C_exists q -> tr_exists ctx scope q
  | C_in (e, q) ->
      let e' = tr_expr ctx scope extras e in
      tr_membership ctx scope e' q ~null_checks:false
  | C_is_null e -> A.Pred (A.Is_null (tr_expr ctx scope extras e))
  | C_is_not_null e -> A.Pred (A.Not_null (tr_expr ctx scope extras e))
  | C_like (e, p) -> A.Pred (A.Like (tr_expr ctx scope extras e, p))

and tr_exists ctx scope q : A.formula =
  match q with
  | Q_select s
    when s.group_by = [] && s.having = None && not (select_has_aggs s) ->
      (* inline the subquery as a quantifier scope; the SELECT list of an
         EXISTS subquery is irrelevant *)
      let extras = ref [] in
      let bindings, jtree, conds, inner_scope = tr_from ctx scope s.from in
      let where =
        match s.where with
        | None -> []
        | Some c -> [ tr_cond ctx inner_scope ~extras c ]
      in
      A.Exists
        {
          bindings = bindings @ !extras;
          grouping = None;
          join = jtree;
          body = A.And (conds @ where);
        }
  | _ ->
      let c = tr_set_query_inner ctx scope q in
      let var = fresh ctx "x" in
      A.Exists
        {
          bindings = [ { A.var; source = A.Nested c } ];
          grouping = None;
          join = None;
          body = A.True;
        }

and tr_membership ctx scope e' q ~null_checks : A.formula =
  let mk_eq item_term =
    if null_checks then
      A.Or
        [
          A.Pred (A.Cmp (A.Eq, item_term, e'));
          A.Pred (A.Is_null item_term);
          A.Pred (A.Is_null e');
        ]
    else A.Pred (A.Cmp (A.Eq, item_term, e'))
  in
  match q with
  | Q_select s
    when s.group_by = [] && s.having = None
         && (not (select_has_aggs s))
         && List.length s.items = 1 ->
      let extras = ref [] in
      let bindings, jtree, conds, inner_scope = tr_from ctx scope s.from in
      let where =
        match s.where with
        | None -> []
        | Some c -> [ tr_cond ctx inner_scope ~extras c ]
      in
      let item_term =
        tr_expr ctx inner_scope extras (List.hd s.items).item_expr
      in
      A.Exists
        {
          bindings = bindings @ !extras;
          grouping = None;
          join = jtree;
          body = A.And (conds @ where @ [ mk_eq item_term ]);
        }
  | _ ->
      let c = tr_set_query_inner ctx scope q in
      (match c.A.head.head_attrs with
      | [ attr ] ->
          let var = fresh ctx "x" in
          A.Exists
            {
              bindings = [ { A.var; source = A.Nested c } ];
              grouping = None;
              join = None;
              body = mk_eq (A.Attr (var, attr));
            }
      | _ -> unsupported "IN subquery must have one output column")

and select_has_aggs s =
  List.exists select_item_has_agg s.items

(* ------------------------------------------------------------------ *)
(* SELECT                                                              *)
(* ------------------------------------------------------------------ *)

and dedup_wrap ctx (c : A.collection) : A.collection =
  (* Section 2.7: DISTINCT = grouping on all projected attributes *)
  let var = fresh ctx "x" in
  let attrs = c.A.head.head_attrs in
  let head = c.A.head.head_name ^ "d" in
  {
    head = { head_name = head; head_attrs = attrs };
    body =
      A.Exists
        {
          bindings = [ { A.var; source = A.Nested c } ];
          grouping = Some (List.map (fun a -> (var, a)) attrs);
          join = None;
          body =
            A.And
              (List.map
                 (fun a -> A.Pred (A.Cmp (A.Eq, A.Attr (head, a), A.Attr (var, a))))
                 attrs);
        };
  }

and tr_select ctx (scope : scope) ~head_name s : A.collection =
  if s.order_by <> [] || s.limit <> None then
    unsupported
      "ORDER BY / LIMIT: ordered output is outside ARC's relational core \
       (an open extension, paper Section 5)";
  let extras = ref [] in
  let bindings, jtree, conds, inner_scope = tr_from ctx scope s.from in
  let where =
    match s.where with
    | None -> []
    | Some c -> [ tr_cond ctx inner_scope ~extras c ]
  in
  let head_attrs = List.mapi item_name s.items in
  let grouped = has_group_semantics s in
  let grouping =
    if not grouped then None
    else
      Some
        (List.map
           (fun (t, c) ->
             let alias =
               match t with Some t -> t | None -> resolve_unqual inner_scope c
             in
             (alias, c))
           s.group_by)
  in
  let assignments =
    List.mapi
      (fun i it ->
        A.Pred
          (A.Cmp
             ( A.Eq,
               A.Attr (head_name, item_name i it),
               tr_expr ctx inner_scope extras it.item_expr )))
      s.items
  in
  let having =
    match s.having with
    | None -> []
    | Some c -> [ tr_cond ctx inner_scope ~extras c ]
  in
  let body = A.And (conds @ where @ assignments @ having) in
  let c : A.collection =
    {
      head = { head_name; head_attrs };
      body =
        A.Exists
          { bindings = bindings @ !extras; grouping; join = jtree; body };
    }
  in
  if s.distinct then dedup_wrap ctx c else c

and has_group_semantics s =
  s.group_by <> [] || s.having <> None || select_has_aggs s

(* rename a collection's head (and all references to it) *)
and rename_head (c : A.collection) new_name new_attrs : A.collection =
  let old = c.A.head.head_name in
  let amap = List.combine c.A.head.head_attrs new_attrs in
  let rec rterm = function
    | A.Attr (v, a) when v = old ->
        A.Attr (new_name, Option.value (List.assoc_opt a amap) ~default:a)
    | A.Scalar (op, ts) -> A.Scalar (op, List.map rterm ts)
    | A.Agg (k, t) -> A.Agg (k, rterm t)
    | t -> t
  in
  let rpred = function
    | A.Cmp (op, l, r) -> A.Cmp (op, rterm l, rterm r)
    | A.Is_null t -> A.Is_null (rterm t)
    | A.Not_null t -> A.Not_null (rterm t)
    | A.Like (t, p) -> A.Like (rterm t, p)
  in
  let rec rformula = function
    | A.True -> A.True
    | A.Pred p -> A.Pred (rpred p)
    | A.And fs -> A.And (List.map rformula fs)
    | A.Or fs -> A.Or (List.map rformula fs)
    | A.Not f -> A.Not (rformula f)
    | A.Exists sc -> A.Exists { sc with body = rformula sc.body }
    (* nested collections never reference outer heads *)
  in
  {
    head = { head_name = new_name; head_attrs = new_attrs };
    body = rformula c.A.body;
  }

and tr_set_query_inner ?(dedup = true) ctx scope q : A.collection =
  match q with
  | Q_select s -> tr_select ctx scope ~head_name:(fresh ctx "X") s
  | Q_union (all, a, b) ->
      let ca = tr_set_query_inner ctx scope a in
      let cb = tr_set_query_inner ctx scope b in
      let cb =
        rename_head cb ca.A.head.head_name ca.A.head.head_attrs
      in
      let merged : A.collection =
        {
          head = ca.A.head;
          body = A.Or (A.disjuncts ca.A.body @ A.disjuncts cb.A.body);
        }
      in
      if all || not dedup then merged else dedup_wrap ctx merged
  | Q_except (false, a, b) ->
      let ca = tr_set_query_inner ctx scope a in
      let cb = tr_set_query_inner ctx scope b in
      let attrs = ca.A.head.head_attrs in
      let battrs = cb.A.head.head_attrs in
      if List.length attrs <> List.length battrs then
        unsupported "EXCEPT arity mismatch";
      let head = fresh ctx "X" in
      let x = fresh ctx "x" and y = fresh ctx "y" in
      let null_eq (ya, xa) =
        A.Or
          [
            A.Pred (A.Cmp (A.Eq, A.Attr (y, ya), A.Attr (x, xa)));
            A.And
              [
                A.Pred (A.Is_null (A.Attr (y, ya)));
                A.Pred (A.Is_null (A.Attr (x, xa)));
              ];
          ]
      in
      dedup_wrap ctx
        {
          head = { head_name = head; head_attrs = attrs };
          body =
            A.Exists
              {
                bindings = [ { A.var = x; source = A.Nested ca } ];
                grouping = None;
                join = None;
                body =
                  A.And
                    (List.map
                       (fun a ->
                         A.Pred (A.Cmp (A.Eq, A.Attr (head, a), A.Attr (x, a))))
                       attrs
                    @ [
                        A.Not
                          (A.Exists
                             {
                               bindings = [ { A.var = y; source = A.Nested cb } ];
                               grouping = None;
                               join = None;
                               body =
                                 A.And
                                   (List.map null_eq (List.combine battrs attrs));
                             });
                      ]);
              };
        }
  | Q_intersect (false, a, b) ->
      let ca = tr_set_query_inner ctx scope a in
      let cb = tr_set_query_inner ctx scope b in
      let attrs = ca.A.head.head_attrs in
      let battrs = cb.A.head.head_attrs in
      if List.length attrs <> List.length battrs then
        unsupported "INTERSECT arity mismatch";
      let head = fresh ctx "X" in
      let x = fresh ctx "x" and y = fresh ctx "y" in
      let null_eq (ya, xa) =
        A.Or
          [
            A.Pred (A.Cmp (A.Eq, A.Attr (y, ya), A.Attr (x, xa)));
            A.And
              [
                A.Pred (A.Is_null (A.Attr (y, ya)));
                A.Pred (A.Is_null (A.Attr (x, xa)));
              ];
          ]
      in
      dedup_wrap ctx
        {
          head = { head_name = head; head_attrs = attrs };
          body =
            A.Exists
              {
                bindings = [ { A.var = x; source = A.Nested ca } ];
                grouping = None;
                join = None;
                body =
                  A.And
                    (List.map
                       (fun a ->
                         A.Pred (A.Cmp (A.Eq, A.Attr (head, a), A.Attr (x, a))))
                       attrs
                    @ [
                        A.Exists
                          {
                            bindings = [ { A.var = y; source = A.Nested cb } ];
                            grouping = None;
                            join = None;
                            body =
                              A.And (List.map null_eq (List.combine battrs attrs));
                          };
                      ]);
              };
        }
  | Q_except (true, _, _) | Q_intersect (true, _, _) ->
      unsupported "EXCEPT ALL / INTERSECT ALL"

(* Alpha-rename every binding variable called [bad] (SQL aliases default to
   the table name, which may collide with the head name a CTE or the main
   query is about to receive). *)
let avoid_var ctx bad (c : A.collection) : A.collection =
  let subst map v = Option.value (List.assoc_opt v map) ~default:v in
  let rec r_term map = function
    | A.Const c -> A.Const c
    | A.Attr (v, a) -> A.Attr (subst map v, a)
    | A.Scalar (op, ts) -> A.Scalar (op, List.map (r_term map) ts)
    | A.Agg (k, t) -> A.Agg (k, r_term map t)
  in
  let r_pred map = function
    | A.Cmp (op, l, r) -> A.Cmp (op, r_term map l, r_term map r)
    | A.Is_null t -> A.Is_null (r_term map t)
    | A.Not_null t -> A.Not_null (r_term map t)
    | A.Like (t, p) -> A.Like (r_term map t, p)
  in
  let rec r_join map = function
    | A.J_var v -> A.J_var (subst map v)
    | A.J_lit c -> A.J_lit c
    | A.J_inner l -> A.J_inner (List.map (r_join map) l)
    | A.J_left (a, b) -> A.J_left (r_join map a, r_join map b)
    | A.J_full (a, b) -> A.J_full (r_join map a, r_join map b)
  in
  let rec r_formula map = function
    | A.True -> A.True
    | A.Pred p -> A.Pred (r_pred map p)
    | A.And fs -> A.And (List.map (r_formula map) fs)
    | A.Or fs -> A.Or (List.map (r_formula map) fs)
    | A.Not f -> A.Not (r_formula map f)
    | A.Exists s ->
        let map', bindings =
          List.fold_left
            (fun (m, bs) (b : A.binding) ->
              let source =
                match b.A.source with
                | A.Base n -> A.Base n
                | A.Nested c -> A.Nested (r_coll m c)
              in
              if b.A.var = bad then
                let v' = fresh ctx (bad ^ "_") in
                ((bad, v') :: m, bs @ [ { A.var = v'; source } ])
              else (m, bs @ [ { b with A.source = source } ]))
            (map, []) s.A.bindings
        in
        A.Exists
          {
            bindings;
            grouping =
              Option.map (List.map (fun (v, a) -> (subst map' v, a)))
                s.A.grouping;
            join = Option.map (r_join map') s.A.join;
            body = r_formula map' s.A.body;
          }
  and r_coll map c = { c with A.body = r_formula map c.A.body } in
  r_coll [] c

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let set_query ?(schemas = []) q =
  let ctx = { schemas; fresh = 0 } in
  let c = tr_set_query_inner ctx [] q in
  rename_head (avoid_var ctx "Q" c) "Q" c.A.head.head_attrs

let statement ?(schemas = []) (st : statement) : A.program =
  let ctx = { schemas; fresh = 0 } in
  let defs =
    List.map
      (fun cte ->
        (* recursion computes a least fixed point under set semantics, so
           the UNION-dedup wrapper is redundant (and would make the
           dependency look nonmonotone) *)
        let c = tr_set_query_inner ~dedup:false ctx [] cte.cte_body in
        let attrs =
          if cte.cte_cols = [] then c.A.head.head_attrs else cte.cte_cols
        in
        let c = rename_head (avoid_var ctx cte.cte_name c) cte.cte_name attrs in
        ctx.schemas <- (cte.cte_name, attrs) :: ctx.schemas;
        { A.def_name = cte.cte_name; def_body = c })
      st.ctes
  in
  let main = tr_set_query_inner ctx [] st.body in
  let main = rename_head (avoid_var ctx "Q" main) "Q" main.A.head.head_attrs in
  { A.defs; main = A.Coll main }
