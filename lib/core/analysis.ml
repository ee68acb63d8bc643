open Ast

type env = {
  base_schemas : (rel_name * attr list) list;
  externals : External.decl list;
}

let env ?(schemas = []) ?(externals = External.standard) () =
  { base_schemas = schemas; externals }

let default_env = env ()

(* ------------------------------------------------------------------ *)
(* Predicate roles                                                     *)
(* ------------------------------------------------------------------ *)

type role = { is_assignment : bool; is_aggregation : bool }

let head_side heads = function
  | Attr (v, a) when List.mem v heads -> Some (v, a)
  | _ -> None

let assignment_of ~heads p =
  match p with
  | Cmp (Eq, l, r) -> (
      match (head_side heads l, head_side heads r) with
      | Some ha, None -> Some (ha, r)
      | None, Some ha -> Some (ha, l)
      | Some ha, Some _ ->
          (* both sides are head attrs: treat left as the target *)
          Some (ha, r)
      | None, None -> None)
  | _ -> None

let classify ~heads p =
  {
    is_assignment = assignment_of ~heads p <> None;
    is_aggregation = pred_has_agg p;
  }

(* ------------------------------------------------------------------ *)
(* Join annotations (Fig 12)                                           *)
(* ------------------------------------------------------------------ *)

(* The reference evaluator and the plan lowering must agree, predicate by
   predicate, on how an annotated scope decomposes: which literal leaf
   consumes which body comparison, which conjuncts are ON conditions and
   which stay WHERE, and which annotation node each ON condition attaches
   to. These three functions are that shared decomposition; both engines
   call them (Eval.enum_scope and Lower's RANF translation), so a
   divergence is a type error rather than a silent semantic drift. *)

(* Literal leaves become fresh singleton bindings with single attribute
   "val"; one body comparison against the literal's constant is redirected
   to that attribute so it acts as a join condition at the annotation node
   rather than as a filter on the other operand. Returns the rewritten
   scope (literal bindings appended) plus the [(var, constant)] pairs the
   caller must supply as singleton relations of schema ["val"]. *)
let prepare_join_literals (scope : scope) :
    scope * (var * Arc_value.Value.t) list =
  match scope.join with
  | None -> (scope, [])
  | Some jt ->
      let counter = ref 0 in
      let lit_binds = ref [] in
      let rec rewrite = function
        | J_var v -> J_var v
        | J_lit c ->
            incr counter;
            let v = Printf.sprintf "_lit%d" !counter in
            lit_binds := (v, c) :: !lit_binds;
            J_var v
        | J_inner l -> J_inner (List.map rewrite l)
        | J_left (a, b) -> J_left (rewrite a, rewrite b)
        | J_full (a, b) -> J_full (rewrite a, rewrite b)
      in
      let jt' = rewrite jt in
      let lits = List.rev !lit_binds in
      if lits = [] then (scope, [])
      else
        let tree_vars = join_tree_vars jt in
        let in_tree t =
          let vs = List.map fst (term_vars t) in
          vs <> [] && List.for_all (fun v -> List.mem v tree_vars) vs
        in
        let remaining = ref lits in
        let redirect c mk =
          match
            List.find_opt (fun (_, c') -> Arc_value.Value.equal c c') !remaining
          with
          | Some (v, _) ->
              remaining := List.filter (fun (v', _) -> v' <> v) !remaining;
              Some (mk (Attr (v, "val")))
          | None -> None
        in
        let rec rewrite_formula f =
          match f with
          | Pred (Cmp (op, l, Const c)) when (not (term_has_agg l)) && in_tree l
            -> (
              match redirect c (fun t -> Pred (Cmp (op, l, t))) with
              | Some f' -> f'
              | None -> f)
          | Pred (Cmp (op, Const c, r)) when (not (term_has_agg r)) && in_tree r
            -> (
              match redirect c (fun t -> Pred (Cmp (op, t, r))) with
              | Some f' -> f'
              | None -> f)
          | And fs -> And (List.map rewrite_formula fs)
          | f -> f
        in
        let body' = rewrite_formula scope.body in
        let lit_bindings =
          List.map (fun (v, _) -> { var = v; source = Base v }) lits
        in
        ( { scope with join = Some jt'; body = body';
            bindings = scope.bindings @ lit_bindings },
          lits )

(* Splits the scope body conjuncts into join conditions (attached to the
   smallest annotation node covering their scope variables, where they act
   like SQL ON conditions) and the residual formula (evaluated after the
   join, like SQL WHERE — so it also filters NULL-padded rows). *)
let split_join_conditions ~heads (scope : scope) =
  let tree = Option.get scope.join in
  let tree_vars = join_tree_vars tree in
  let scope_var v = List.exists (fun b -> b.var = v) scope.bindings in
  let conjs = conjuncts scope.body in
  let is_attachable f =
    match f with
    | Pred p ->
        (not (pred_has_agg p))
        && (not (classify ~heads p).is_assignment)
        &&
        let vs =
          List.concat_map (fun t -> List.map fst (term_vars t)) (pred_terms p)
        in
        let scope_vs = List.filter scope_var vs in
        scope_vs <> [] && List.for_all (fun v -> List.mem v tree_vars) scope_vs
    | _ -> false
  in
  List.partition is_attachable conjs

(* The smallest annotation node whose variables cover [vars]; identity is
   physical ([==] against the tree handed in), so callers must resolve
   covers against the very same tree value they enumerate. *)
let smallest_cover tree vars =
  let covers node =
    let nv = join_tree_vars node in
    List.for_all (fun v -> List.mem v nv) vars
  in
  let rec descend node =
    match node with
    | J_var _ | J_lit _ -> node
    | J_inner l -> (
        match List.find_opt covers l with
        | Some child -> descend child
        | None -> node)
    | J_left (a, b) | J_full (a, b) ->
        if covers a then descend a
        else if covers b then descend b
        else node
  in
  if covers tree then Some (descend tree) else None

(* The ON conditions attached to one annotation node: those attachable
   conjuncts whose scope variables' smallest cover is that node. *)
let node_join_preds tree (scope : scope) ~attached node =
  let scope_var v = List.exists (fun b -> b.var = v) scope.bindings in
  List.filter_map
    (fun f ->
      match f with
      | Pred p ->
          let vs =
            List.concat_map
              (fun t -> List.map fst (term_vars t))
              (pred_terms p)
            |> List.filter scope_var
          in
          (match smallest_cover tree vs with
          | Some n when n == node -> Some p
          | _ -> None)
      | _ -> None)
    attached

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

type error =
  | Duplicate_binding of var
  | Duplicate_head_attr of rel_name * attr
  | Unbound_variable of var
  | Unknown_attribute of var * attr
  | Unknown_relation of rel_name
  | Aggregate_outside_grouping of string
  | Nested_aggregate of string
  | Join_var_not_bound of var
  | Join_var_duplicated of var
  | Grouping_var_not_bound of var
  | Head_in_nested_collection of rel_name
  | Ungrouped_head_dependency of rel_name * attr
  | Reserved_relation_name of rel_name

(* Names the engine mangles into the shared relation namespace: the
   plan engine's fixpoint registers "__delta__<def>" entries and
   the maintenance layer registers "__ivm__…" working relations. A user
   relation in either namespace would silently collide with them. *)
let reserved_prefixes = [ "__delta__"; "__ivm__" ]

let is_reserved_name n =
  List.exists (fun p -> String.starts_with ~prefix:p n) reserved_prefixes

let error_to_string = function
  | Duplicate_binding v -> Printf.sprintf "duplicate binding for variable %S" v
  | Duplicate_head_attr (h, a) ->
      Printf.sprintf "head %s declares attribute %S twice" h a
  | Unbound_variable v -> Printf.sprintf "unbound range variable %S" v
  | Unknown_attribute (v, a) ->
      Printf.sprintf "variable %S has no attribute %S" v a
  | Unknown_relation r -> Printf.sprintf "unknown relation %S" r
  | Aggregate_outside_grouping p ->
      Printf.sprintf
        "aggregation predicate %S appears in a scope without a grouping \
         operator"
        p
  | Nested_aggregate t -> Printf.sprintf "nested aggregate in term %S" t
  | Join_var_not_bound v ->
      Printf.sprintf "join annotation mentions unbound variable %S" v
  | Join_var_duplicated v ->
      Printf.sprintf "join annotation mentions variable %S twice" v
  | Grouping_var_not_bound v ->
      Printf.sprintf "grouping key refers to variable %S not bound in this scope" v
  | Head_in_nested_collection h ->
      Printf.sprintf
        "head %S of an enclosing collection referenced inside a nested \
         collection"
        h
  | Ungrouped_head_dependency (h, a) ->
      Printf.sprintf
        "head attribute %s.%s is assigned a non-aggregate term that is not a \
         grouping key"
        h a
  | Reserved_relation_name r ->
      Printf.sprintf
        "relation name %S begins with a reserved engine prefix (%s)" r
        (String.concat ", "
           (List.map (Printf.sprintf "%S") reserved_prefixes))

type vctx = {
  venv : env;
  defs : (rel_name * attr list) list;
  heads : (rel_name * attr list) list;  (* visible enclosing heads *)
  shadow_heads : rel_name list;         (* heads hidden by nested collections *)
  vars : (var * attr list option) list; (* visible range variables *)
  scope_vars : var list;                (* vars of the nearest scope *)
  grouping_keys : grouping option;      (* of the nearest scope *)
  errors : error list ref;
}

let err ctx e = ctx.errors := e :: !(ctx.errors)

let source_attrs ctx name : attr list option =
  match List.assoc_opt name ctx.defs with
  | Some attrs -> Some attrs
  | None -> (
      match List.assoc_opt name ctx.venv.base_schemas with
      | Some attrs -> Some attrs
      | None -> (
          match External.find ctx.venv.externals name with
          | Some d -> Some d.External.ext_attrs
          | None ->
              if ctx.venv.base_schemas <> [] then
                (* schema checking enabled: unknown name is an error *)
                None
              else None))

let known_relation ctx name =
  List.mem_assoc name ctx.defs
  || List.mem_assoc name ctx.venv.base_schemas
  || External.find ctx.venv.externals name <> None

let rec check_term ctx ~in_agg t =
  match t with
  | Const _ -> ()
  | Attr (v, a) -> (
      match List.assoc_opt v ctx.vars with
      | Some (Some attrs) ->
          if not (List.mem a attrs) then err ctx (Unknown_attribute (v, a))
      | Some None -> ()
      | None -> (
          match List.assoc_opt v ctx.heads with
          | Some attrs ->
              if not (List.mem a attrs) then err ctx (Unknown_attribute (v, a))
          | None ->
              if List.mem v ctx.shadow_heads then
                err ctx (Head_in_nested_collection v)
              else err ctx (Unbound_variable v)))
  | Scalar (_, ts) -> List.iter (check_term ctx ~in_agg) ts
  | Agg (_, inner) ->
      if in_agg then err ctx (Nested_aggregate (Pp.term t))
      else (
        if ctx.grouping_keys = None then
          err ctx (Aggregate_outside_grouping (Pp.term t));
        check_term ctx ~in_agg:true inner)

let check_pred ctx p =
  List.iter (check_term ctx ~in_agg:false) (pred_terms p);
  (* grouping-scope head-dependency rule *)
  match ctx.grouping_keys with
  | Some keys -> (
      match assignment_of ~heads:(List.map fst ctx.heads) p with
      | Some ((h, a), t) when not (term_has_agg t) ->
          let ok (v, at) =
            List.mem (v, at) keys || not (List.mem v ctx.scope_vars)
          in
          if not (List.for_all ok (term_vars t)) then
            err ctx (Ungrouped_head_dependency (h, a))
      | _ -> ())
  | None -> ()

let rec check_formula ctx = function
  | True -> ()
  | Pred p -> check_pred ctx p
  | And fs | Or fs -> List.iter (check_formula ctx) fs
  | Not f -> check_formula ctx f
  | Exists scope -> check_scope ctx scope

and check_scope ctx scope =
  (* bindings, left to right; later bindings may reference earlier ones *)
  let ctx' =
    List.fold_left
      (fun acc b ->
        if List.mem_assoc b.var acc.vars || List.mem_assoc b.var acc.heads then
          err acc (Duplicate_binding b.var);
        let attrs =
          match b.source with
          | Base name ->
              if is_reserved_name name then
                err acc (Reserved_relation_name name);
              if not (known_relation acc name) && acc.venv.base_schemas <> []
              then err acc (Unknown_relation name);
              source_attrs acc name
          | Nested c ->
              check_nested_collection acc c;
              Some c.head.head_attrs
        in
        { acc with vars = (b.var, attrs) :: acc.vars })
      ctx scope.bindings
  in
  let bound = List.map (fun b -> b.var) scope.bindings in
  (* grouping keys *)
  (match scope.grouping with
  | Some keys ->
      List.iter
        (fun (v, _) ->
          if not (List.mem v bound) then err ctx (Grouping_var_not_bound v))
        keys
  | None -> ());
  (* join annotation *)
  (match scope.join with
  | Some jt ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun v ->
          if Hashtbl.mem seen v then err ctx (Join_var_duplicated v)
          else Hashtbl.add seen v ();
          if not (List.mem v bound) then err ctx (Join_var_not_bound v))
        (join_tree_vars jt)
  | None -> ());
  let ctx'' =
    {
      ctx' with
      scope_vars = bound;
      grouping_keys = scope.grouping;
    }
  in
  check_formula ctx'' scope.body

and check_nested_collection ctx c =
  (* Nested collections see enclosing range variables (lateral correlation)
     but not enclosing heads. *)
  let ctx' =
    {
      ctx with
      heads = [];
      shadow_heads = List.map fst ctx.heads @ ctx.shadow_heads;
    }
  in
  check_collection ctx' c

and check_collection ctx c =
  if is_reserved_name c.head.head_name then
    err ctx (Reserved_relation_name c.head.head_name);
  let seen = Hashtbl.create 8 in
  List.iter
    (fun a ->
      if Hashtbl.mem seen a then
        err ctx (Duplicate_head_attr (c.head.head_name, a))
      else Hashtbl.add seen a ())
    c.head.head_attrs;
  let ctx' =
    { ctx with heads = (c.head.head_name, c.head.head_attrs) :: ctx.heads }
  in
  check_formula ctx' c.body

let initial_ctx env defs =
  {
    venv = env;
    defs;
    heads = [];
    shadow_heads = [];
    vars = [];
    scope_vars = [];
    grouping_keys = None;
    errors = ref [];
  }

let def_schemas defs =
  List.map (fun d -> (d.def_name, d.def_body.head.head_attrs)) defs

let validate ?(env = default_env) (prog : program) =
  let defs = def_schemas prog.defs in
  let ctx = initial_ctx env defs in
  List.iter
    (fun (n, _) ->
      if is_reserved_name n then err ctx (Reserved_relation_name n))
    env.base_schemas;
  List.iter (fun d -> check_collection ctx d.def_body) prog.defs;
  (match prog.main with
  | Coll c -> check_collection ctx c
  | Sentence f -> check_formula ctx f);
  match List.rev !(ctx.errors) with [] -> Ok () | es -> Error es

let validate_query ?env q = validate ?env { defs = []; main = q }

(* ------------------------------------------------------------------ *)
(* Safety (range restriction)                                          *)
(* ------------------------------------------------------------------ *)

type safety = Safe | Unsafe of string

module SS = Set.Make (struct
  type t = var * attr

  let compare = compare
end)

type finiteness = Finite | Needs_resolution of External.mode list

(* Determine, for one disjunct of a collection body, whether every head
   attribute is range-restricted and every external/abstract binding is
   resolvable through one of its access patterns. [outer_restricted] treats
   correlated references to enclosing scopes as already restricted (safety
   "in context"). *)
let rec disjunct_safety ~senv ~defs_safety ~outer_vars ~heads head_attrs f =
  match f with
  | Exists scope ->
      scope_safety ~senv ~defs_safety ~outer_vars ~heads head_attrs scope
  | And _ | Or _ | Not _ | Pred _ | True ->
      (* A disjunct without a top-level quantifier cannot range-restrict
         head attributes (e.g. the raw Minus definition of Section 2.13). *)
      if head_attrs = [] then Safe
      else
        Unsafe
          "body has no quantifier scope; head attributes are not \
           range-restricted"

and scope_safety ~senv ~defs_safety ~outer_vars ~heads head_attrs scope =
  let base_schemas, externals = senv in
  (* classify each binding *)
  let all_bound attrs = [ { External.m_inputs = attrs; m_outputs = [] } ] in
  let binding_kind acc b =
    match b.source with
    | Nested c -> (
        (* nested collections may correlate with anything visible *)
        match
          collection_safety_inner ~senv ~defs_safety
            ~outer_vars:(b.var :: (outer_vars @ acc)) c
        with
        | Safe -> Finite
        | Unsafe _ -> Needs_resolution (all_bound c.head.head_attrs))
    | Base name -> (
        match List.assoc_opt name defs_safety with
        | Some (Safe, _) -> Finite
        | Some (Unsafe _, attrs) -> Needs_resolution (all_bound attrs)
        | None -> (
            match External.find externals name with
            | Some d -> Needs_resolution d.External.ext_modes
            | None ->
                if List.mem_assoc name base_schemas then Finite
                else Finite (* unknown names treated as finite bases *)))
  and all_bound attrs = [ { External.m_inputs = attrs; m_outputs = [] } ]
  and all_bound_mode attrs _reason =
    [ { External.m_inputs = attrs; m_outputs = [] } ]
  in
  let kinds =
    List.fold_left
      (fun acc b -> acc @ [ (b, binding_kind (List.map (fun (x, _) -> x.var) acc) b) ])
      [] scope.bindings
  in
  let finite_vars =
    List.filter_map (fun (b, k) -> if k = Finite then Some b.var else None) kinds
  in
  (* fixpoint over restricted attributes of non-finite bindings *)
  let conjs = conjuncts scope.body in
  let eqs =
    List.filter_map (function Pred (Cmp (Eq, l, r)) -> Some (l, r) | _ -> None) conjs
  in
  let restricted = ref SS.empty in
  let var_finite v =
    List.mem v finite_vars || List.mem v outer_vars
  in
  let rec term_restricted t =
    match t with
    | Const _ -> true
    | Attr (v, a) -> var_finite v || SS.mem (v, a) !restricted
    | Scalar (_, ts) -> List.for_all term_restricted ts
    | Agg (_, inner) -> term_restricted inner
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (l, r) ->
        let promote side other =
          match side with
          | Attr (v, a)
            when (not (var_finite v))
                 && (not (List.mem v heads))
                 && (not (SS.mem (v, a) !restricted))
                 && term_restricted other ->
              restricted := SS.add (v, a) !restricted;
              changed := true
          | _ -> ()
        in
        promote l r;
        promote r l)
      eqs
  done;
  (* every non-finite binding must be resolvable by some mode *)
  let unresolved =
    List.filter_map
      (fun (b, k) ->
        match k with
        | Finite -> None
        | Needs_resolution modes ->
            let ok =
              List.exists
                (fun m ->
                  List.for_all
                    (fun a -> SS.mem (b.var, a) !restricted)
                    m.External.m_inputs)
                modes
            in
            if ok then (
              (* outputs of the satisfied mode become restricted *)
              List.iter
                (fun m ->
                  if
                    List.for_all
                      (fun a -> SS.mem (b.var, a) !restricted)
                      m.External.m_inputs
                  then
                    List.iter
                      (fun a -> restricted := SS.add (b.var, a) !restricted)
                      m.External.m_outputs)
                modes;
              None)
            else Some b.var)
      kinds
  in
  match unresolved with
  | v :: _ ->
      Unsafe
        (Printf.sprintf
           "binding %S to an external/abstract relation cannot be resolved \
            through any access pattern"
           v)
  | [] -> (
      (* one more restriction pass now that external outputs are known *)
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (l, r) ->
            let promote side other =
              match side with
              | Attr (v, a)
                when (not (var_finite v))
                     && (not (SS.mem (v, a) !restricted))
                     && term_restricted other ->
                  restricted := SS.add (v, a) !restricted;
                  changed := true
              | _ -> ()
            in
            promote l r;
            promote r l)
          eqs
      done;
      (* each head attribute must be assigned a restricted term *)
      let head_name = List.hd heads in
      let assigned a =
        List.exists
          (fun f ->
            match f with
            | Pred p -> (
                match assignment_of ~heads p with
                | Some ((h, a'), t) ->
                    h = head_name && a' = a && term_restricted t
                | None -> false)
            | _ -> false)
          conjs
      in
      match List.find_opt (fun a -> not (assigned a)) head_attrs with
      | Some a ->
          Unsafe
            (Printf.sprintf
               "head attribute %s.%s is not assigned a range-restricted term"
               head_name a)
      | None -> Safe)

and collection_safety_inner ~senv ~defs_safety ~outer_vars c =
  let heads = [ c.head.head_name ] in
  let check_disjunct d =
    disjunct_safety ~senv ~defs_safety ~outer_vars ~heads c.head.head_attrs d
  in
  let rec first_unsafe = function
    | [] -> Safe
    | d :: rest -> (
        match check_disjunct d with Safe -> first_unsafe rest | u -> u)
  in
  first_unsafe (disjuncts c.body)

let compute_defs_safety ~senv defs =
  List.fold_left
    (fun acc d ->
      (* a recursive reference to the definition itself (or to an earlier,
         safe definition) is treated as finite: the least fixed point of a
         safe body is finite *)
      let defs_safety =
        (d.def_name, (Safe, d.def_body.head.head_attrs)) :: acc
      in
      let s =
        collection_safety_inner ~senv ~defs_safety ~outer_vars:[] d.def_body
      in
      (d.def_name, (s, d.def_body.head.head_attrs)) :: acc)
    [] defs

let collection_safety ?(env = default_env) ~defs c =
  let senv = (env.base_schemas, env.externals) in
  let defs_safety = compute_defs_safety ~senv defs in
  collection_safety_inner ~senv ~defs_safety ~outer_vars:[] c

let program_safety ?(env = default_env) (prog : program) =
  let senv = (env.base_schemas, env.externals) in
  let defs_safety = compute_defs_safety ~senv prog.defs in
  List.rev_map (fun (n, (s, _)) -> (n, s)) defs_safety |> List.rev
  |> List.filter (fun (n, _) -> List.exists (fun d -> d.def_name = n) prog.defs)

(* ------------------------------------------------------------------ *)
(* Misc                                                                *)
(* ------------------------------------------------------------------ *)

let free_vars_query q =
  let free = ref [] in
  let add v bound = if not (List.mem v bound) && not (List.mem v !free) then free := v :: !free in
  let rec walk_formula bound = function
    | True -> ()
    | Pred p ->
        List.iter
          (fun t -> List.iter (fun (v, _) -> add v bound) (term_vars t))
          (pred_terms p)
    | And fs | Or fs -> List.iter (walk_formula bound) fs
    | Not f -> walk_formula bound f
    | Exists s ->
        let bound' =
          List.fold_left
            (fun acc b ->
              (match b.source with
              | Nested c -> walk_coll acc c
              | Base _ -> ());
              b.var :: acc)
            bound s.bindings
        in
        walk_formula bound' s.body
  and walk_coll bound c = walk_formula (c.head.head_name :: bound) c.body in
  (match q with
  | Coll c -> walk_coll [] c
  | Sentence f -> walk_formula [] f);
  List.rev !free
