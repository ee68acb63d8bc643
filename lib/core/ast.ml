type var = string
type attr = string
type rel_name = string

type cmp_op = Eq | Neq | Lt | Leq | Gt | Geq

type scalar_op = Add | Sub | Mul | Div | Mod | Neg

type term =
  | Const of Arc_value.Value.t
  | Attr of var * attr
  | Scalar of scalar_op * term list
  | Agg of Arc_value.Aggregate.kind * term

type pred =
  | Cmp of cmp_op * term * term
  | Is_null of term
  | Not_null of term
  | Like of term * string

type join_tree =
  | J_var of var
  | J_lit of Arc_value.Value.t
  | J_inner of join_tree list
  | J_left of join_tree * join_tree
  | J_full of join_tree * join_tree

type grouping = (var * attr) list

type source = Base of rel_name | Nested of collection

and binding = { var : var; source : source }

and scope = {
  bindings : binding list;
  grouping : grouping option;
  join : join_tree option;
  body : formula;
}

and formula =
  | True
  | Pred of pred
  | And of formula list
  | Or of formula list
  | Not of formula
  | Exists of scope

and head = { head_name : rel_name; head_attrs : attr list }

and collection = { head : head; body : formula }

type query = Coll of collection | Sentence of formula

type definition = { def_name : rel_name; def_body : collection }

type program = { defs : definition list; main : query }

let program ?(defs = []) main = { defs; main }

(* A formula contains two kinds of node: sub-formulas and the nested
   collections its scopes bind. [map_children] is the one definition of
   which nodes a node contains, and in what order; [children] and [fold]
   read it. Structural walks descend through these three, while walks
   that track scoping or evaluation keep their own match. *)
type node = F of formula | C of collection

let to_formula = function F f -> f | C _ -> invalid_arg "Ast.to_formula"

let to_collection = function
  | C c -> c
  | F _ -> invalid_arg "Ast.to_collection"

(* [List.map], keeping the list itself when every element comes back
   physically unchanged *)
let map_shared f l =
  let l' = List.map f l in
  if List.for_all2 ( == ) l l' then l else l'

(* Rebuilds a node with [f] applied to each child, left to right: the
   operands of a connective; an [∃] scope's nested collections in binding
   order, then its body; a collection's body. [f] must return a node of
   the kind it was given. A node whose children all come back physically
   unchanged is returned as is. *)
let map_children f n =
  let formula g = to_formula (f (F g)) in
  match n with
  | F (True | Pred _) -> n
  | F (And fs) ->
      let fs' = map_shared formula fs in
      if fs' == fs then n else F (And fs')
  | F (Or fs) ->
      let fs' = map_shared formula fs in
      if fs' == fs then n else F (Or fs')
  | F (Not g) ->
      let g' = formula g in
      if g' == g then n else F (Not g')
  | F (Exists s) ->
      let binding b =
        match b.source with
        | Base _ -> b
        | Nested c ->
            let c' = to_collection (f (C c)) in
            if c' == c then b else { b with source = Nested c' }
      in
      let bindings = map_shared binding s.bindings in
      let body = formula s.body in
      if bindings == s.bindings && body == s.body then n
      else F (Exists { s with bindings; body })
  | C c ->
      let body = formula c.body in
      if body == c.body then n else C { c with body }

let children n =
  let kids = ref [] in
  ignore
    (map_children
       (fun k ->
         kids := k :: !kids;
         k)
       n);
  List.rev !kids

(* preorder: a node before its children *)
let rec fold f acc n = List.fold_left (fold f) (f acc n) (children n)

let query_node = function Coll c -> C c | Sentence f -> F f

let map_query f = function
  | Coll c -> Coll (to_collection (f (C c)))
  | Sentence s -> Sentence (to_formula (f (F s)))

let rec equal_term a b =
  match (a, b) with
  | Const x, Const y -> Arc_value.Value.equal x y
  | Attr (v1, a1), Attr (v2, a2) -> v1 = v2 && a1 = a2
  | Scalar (o1, ts1), Scalar (o2, ts2) ->
      o1 = o2
      && List.length ts1 = List.length ts2
      && List.for_all2 equal_term ts1 ts2
  | Agg (k1, t1), Agg (k2, t2) -> k1 = k2 && equal_term t1 t2
  | _ -> false

let equal_pred a b =
  match (a, b) with
  | Cmp (o1, l1, r1), Cmp (o2, l2, r2) ->
      o1 = o2 && equal_term l1 l2 && equal_term r1 r2
  | Is_null t1, Is_null t2 | Not_null t1, Not_null t2 -> equal_term t1 t2
  | Like (t1, p1), Like (t2, p2) -> equal_term t1 t2 && p1 = p2
  | _ -> false

let rec equal_join_tree a b =
  match (a, b) with
  | J_var v1, J_var v2 -> v1 = v2
  | J_lit c1, J_lit c2 -> Arc_value.Value.equal c1 c2
  | J_inner l1, J_inner l2 ->
      List.length l1 = List.length l2 && List.for_all2 equal_join_tree l1 l2
  | J_left (a1, b1), J_left (a2, b2) | J_full (a1, b1), J_full (a2, b2) ->
      equal_join_tree a1 a2 && equal_join_tree b1 b2
  | _ -> false

let rec equal_formula a b =
  match (a, b) with
  | True, True -> true
  | Pred p1, Pred p2 -> equal_pred p1 p2
  | And l1, And l2 | Or l1, Or l2 ->
      List.length l1 = List.length l2 && List.for_all2 equal_formula l1 l2
  | Not f1, Not f2 -> equal_formula f1 f2
  | Exists s1, Exists s2 -> equal_scope s1 s2
  | _ -> false

and equal_scope s1 s2 =
  List.length s1.bindings = List.length s2.bindings
  && List.for_all2 equal_binding s1.bindings s2.bindings
  && s1.grouping = s2.grouping
  && (match (s1.join, s2.join) with
     | None, None -> true
     | Some j1, Some j2 -> equal_join_tree j1 j2
     | _ -> false)
  && equal_formula s1.body s2.body

and equal_binding b1 b2 = b1.var = b2.var && equal_source b1.source b2.source

and equal_source s1 s2 =
  match (s1, s2) with
  | Base n1, Base n2 -> n1 = n2
  | Nested c1, Nested c2 -> equal_collection c1 c2
  | _ -> false

and equal_collection c1 c2 =
  c1.head = c2.head && equal_formula c1.body c2.body

let equal_query q1 q2 =
  match (q1, q2) with
  | Coll c1, Coll c2 -> equal_collection c1 c2
  | Sentence f1, Sentence f2 -> equal_formula f1 f2
  | _ -> false

let equal_program p1 p2 =
  List.length p1.defs = List.length p2.defs
  && List.for_all2
       (fun d1 d2 ->
         d1.def_name = d2.def_name && equal_collection d1.def_body d2.def_body)
       p1.defs p2.defs
  && equal_query p1.main p2.main

let rec term_vars = function
  | Const _ -> []
  | Attr (v, a) -> [ (v, a) ]
  | Scalar (_, ts) -> List.concat_map term_vars ts
  | Agg (_, t) -> term_vars t

let pred_terms = function
  | Cmp (_, l, r) -> [ l; r ]
  | Is_null t | Not_null t | Like (t, _) -> [ t ]

let rec term_has_agg = function
  | Const _ | Attr _ -> false
  | Scalar (_, ts) -> List.exists term_has_agg ts
  | Agg _ -> true

let pred_has_agg p = List.exists term_has_agg (pred_terms p)

(* aggregate at the current scope level (not inside a deeper quantifier)? *)
let rec formula_has_agg = function
  | True -> false
  | Pred p -> pred_has_agg p
  | And fs | Or fs -> List.exists formula_has_agg fs
  | Not f -> formula_has_agg f
  | Exists _ -> false

let rec conjuncts = function
  | True -> []
  | And fs -> List.concat_map conjuncts fs
  | f -> [ f ]

let rec disjuncts = function
  | Or fs -> List.concat_map disjuncts fs
  | f -> [ f ]

let rec join_tree_vars = function
  | J_var v -> [ v ]
  | J_lit _ -> []
  | J_inner l -> List.concat_map join_tree_vars l
  | J_left (a, b) | J_full (a, b) -> join_tree_vars a @ join_tree_vars b

let cmp_op_to_string = function
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Leq -> "<="
  | Gt -> ">"
  | Geq -> ">="

let cmp_op_flip = function
  | Eq -> Eq
  | Neq -> Neq
  | Lt -> Gt
  | Leq -> Geq
  | Gt -> Lt
  | Geq -> Leq
