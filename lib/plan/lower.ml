open Arc_core.Ast
module Analysis = Arc_core.Analysis
module Canon = Arc_core.Canon
module Relation = Arc_relation.Relation
module Database = Arc_relation.Database
module Schema = Arc_relation.Schema
module V = Arc_value.Value
module Err = Arc_guard.Error

(* What the lowering needs to know about the world: which relation names are
   finite (base relations with a cardinality estimate, safe definitions),
   everything else being deferred to external/abstract resolution. [schemas]
   carries the statically known attribute lists (base relations and, inside
   [lower_program], definition heads) — the RANF translation needs them to
   build NULL pads for outer joins. [stats] carries whatever per-relation
   column statistics the database has collected (ANALYZE); the cost model
   ([Card]) degrades gracefully when it is empty. *)
type env = {
  cards : (rel_name * int) list;
  defs : rel_name list;
  schemas : (rel_name * attr list) list;
  stats : (rel_name * Arc_relation.Stats.t) list;
}

let env ?(cards = []) ?(defs = []) ?(schemas = []) ?(stats = []) () =
  { cards; defs; schemas; stats }

let env_of_db ~db ~defs =
  {
    cards =
      List.map
        (fun n -> (n, Relation.cardinality (Database.find db n)))
        (Database.names db);
    defs;
    schemas =
      List.map
        (fun n -> (n, Schema.attrs (Relation.schema (Database.find db n))))
        (Database.names db);
    stats = Database.stats_bindings db;
  }

let default_card = 64

let source_finite env = function
  | Nested _ -> true
  | Base n -> List.mem_assoc n env.cards || List.mem n env.defs

let card env n =
  match List.assoc_opt n env.cards with Some c -> c | None -> default_card

(* ------------------------------------------------------------------ *)
(* Collection lowering                                                 *)
(* ------------------------------------------------------------------ *)

(* Mirrors the reference evaluator's head-assignment extraction
   (eval.ml): assignments may sit at any positive existential depth; an
   extracted predicate is replaced by [True]; a second assignment to the
   same attribute becomes the constraint [t0 = t]. *)
let extract_assignments ~head scope_body =
  let assignments = Hashtbl.create 8 in
  let rec extract f =
    match f with
    | Pred p -> (
        match Analysis.assignment_of ~heads:[ head.head_name ] p with
        | Some ((_, a), t) when List.mem a head.head_attrs -> (
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
  let residual = Canon.simplify_formula (extract scope_body) in
  let assigns =
    List.filter_map
      (fun a ->
        match Hashtbl.find_opt assignments a with
        | Some t -> Some (a, t)
        | None -> None)
      head.head_attrs
  in
  (assigns, residual)

let free_vars_collection c = Analysis.free_vars_query (Coll c)

let product left right =
  match left with Ir.One -> right | _ -> Ir.Product { left; right }

let finite_rel env n = source_finite env (Base n)

(* [c]'s correlated γ∅ aggregates are unnested ([Decorrelate]) before its
   disjuncts, and with them its nested sources, are lowered. A rejection
   ([Err.Guard_error]) raised while lowering [c] gains [c]'s name in its
   context chain on the way out, as the reference evaluator attributes its
   failures to the collections being evaluated. *)
let rec lower_collection env (c : collection) : Ir.coll_plan =
  let c, _ = Decorrelate.collection ~finite:(finite_rel env) c in
  let body = Canon.simplify_formula c.body in
  try
    {
      Ir.head = c.head;
      disjuncts = List.map (lower_disjunct env c.head) (disjuncts body);
    }
  with Err.Guard_error e ->
    raise (Err.Guard_error (Err.in_collection c.head.head_name e))

and lower_disjunct env head d : Ir.disjunct_plan =
  let scope =
    match d with
    | Exists s -> s
    | f -> { bindings = []; grouping = None; join = None; body = f }
  in
  match scope.join with
  | Some _ -> lower_annotated env head scope
  | None ->
      let assigns, residual = extract_assignments ~head scope.body in
      let conditions = conjuncts residual in
      let finite, deferred =
        List.partition (fun b -> source_finite env b.source) scope.bindings
      in
      (* enumeration chain, in binding order (later bindings see earlier
         ones) *)
      let chain =
        List.fold_left (fun acc b -> extend_chain env acc b) Ir.One finite
      in
      (* deferred bindings resolve in binding order against the
         PRE-extraction scope body (seed equations are detected there, as in
         the reference) *)
      let chain =
        List.fold_left
          (fun acc b -> Ir.Resolve { input = acc; binding = b; scope })
          chain deferred
      in
      finish_disjunct scope ~assigns ~conditions ~chain

(* One finite binding appended to an enumeration chain: base relations scan,
   nested collections become laterals when correlated with earlier
   bindings. *)
and extend_chain env acc (b : binding) : Ir.t =
  match b.source with
  | Base n ->
      product acc
        (Ir.Scan { var = b.var; rel = n; filters = []; card = card env n })
  | Nested nc ->
      let sub = lower_collection env nc in
      let earlier = Ir.bound_vars acc in
      let correlated =
        List.exists (fun v -> List.mem v earlier) (free_vars_collection nc)
      in
      if correlated then Ir.Lateral { input = acc; var = b.var; plan = sub }
      else product acc (Ir.Subquery { var = b.var; plan = sub })

(* The shared disjunct tail: residual conditions, then projection or
   grouping, identical for plain and join-annotated scopes. *)
and finish_disjunct (scope : scope) ~assigns ~conditions ~chain :
    Ir.disjunct_plan =
  match scope.grouping with
  | None ->
      let input =
        if conditions = [] then chain
        else Ir.Residual { input = chain; conjs = conditions }
      in
      Project { input; assigns }
  | Some keys ->
      let pre, post =
        List.partition (fun f -> not (formula_has_agg f)) conditions
      in
      let input =
        if pre = [] then chain else Ir.Residual { input = chain; conjs = pre }
      in
      Aggregate
        {
          input;
          keys;
          scope_vars = List.map (fun b -> b.var) scope.bindings;
          post;
          assigns;
        }

(* RANF-style translation of a join-annotated scope (Fig 12), mirroring the
   reference evaluator's [enum_join_tree] step by step — the decomposition
   (literal expansion, ON/WHERE split, condition-to-node attachment) is
   shared through [Analysis], so both engines see the same predicates at
   the same nodes:

   - [J_inner] nodes become products filtered by their ON conditions;
   - [J_left (a, b)] becomes an [Append] of the matched branch
     (product + ON filter) and the NULL-padded anti-join branch (rows of
     [a] with no ON partner in [b], padded with all-NULL tuples for [b]'s
     variables);
   - [J_full] adds the symmetric right branch.

   Equality ON conditions whose sides split cleanly across the join become
   anti-join hash keys; the rest stay residual probe predicates (3VL: a
   NULL key never matches, exactly as [Eq] never evaluates to [True] on
   NULL). Bindings outside the tree chain on afterwards, exactly as in the
   plain path.

   A tree variable over a non-finite relation (external, abstract or
   unknown) lowers to the plain [Scan]; executing it raises the
   reference's "not finite" error before any of its NULL pads is used, so
   such a pad needs no known schema. An annotation naming an unbound
   variable is rejected with the reference's message. *)
and lower_annotated env head (scope0 : scope) : Ir.disjunct_plan =
  let heads = [ head.head_name ] in
  let scope, lits = Analysis.prepare_join_literals scope0 in
  let attached, residual_conjs =
    Analysis.split_join_conditions ~heads scope
  in
  let tree = Option.get scope.join in
  let tree_vars = join_tree_vars tree in
  let node_preds node = Analysis.node_join_preds tree scope ~attached node in
  let binding_of v =
    match List.find_opt (fun b -> b.var = v) scope.bindings with
    | Some b -> b
    | None ->
        raise
          (Err.Guard_error
             (Err.make
                (Msg
                   (Printf.sprintf
                      "join annotation references unbound variable %S" v))))
  in
  let is_lit v = List.mem_assoc v lits in
  let finite b = is_lit b.var || source_finite env b.source in
  let schema_of v =
    if is_lit v then [ "val" ]
    else
      match (binding_of v).source with
      | Nested nc -> nc.head.head_attrs
      | Base n -> Option.value ~default:[] (List.assoc_opt n env.schemas)
  in
  (* A one-row constant collection bound to [v]: a literal leaf's singleton
     {val: c}, or an all-NULL pad over the given attributes. *)
  let constant_row v attrs values : Ir.t =
    Ir.Subquery
      {
        var = v;
        plan =
          {
            head = { head_name = v; head_attrs = attrs };
            disjuncts =
              [
                Ir.Project
                  {
                    input = Ir.One;
                    assigns = List.map2 (fun a c -> (a, Const c)) attrs values;
                  };
              ];
          };
      }
  in
  let null_pad v (t : Ir.t) : Ir.t =
    let attrs = schema_of v in
    Ir.Product
      {
        left = t;
        right = constant_row v attrs (List.map (fun _ -> V.Null) attrs);
      }
  in
  let filtered preds t =
    if preds = [] then t else Ir.Filter { input = t; preds }
  in
  let leaf v : Ir.t =
    if is_lit v then constant_row v [ "val" ] [ List.assoc v lits ]
    else
      match (binding_of v).source with
      | Nested nc -> Ir.Subquery { var = v; plan = lower_collection env nc }
      | Base n -> Ir.Scan { var = v; rel = n; filters = []; card = card env n }
  in
  let scope_var v = List.exists (fun b -> b.var = v) scope.bindings in
  (* ON-condition → equi-key split at an outer-join node: [Cmp (Eq, l, r)]
     with [l]'s scope variables entirely on one side and [r]'s entirely on
     the other becomes an anti-join hash key; everything else stays a
     residual probe predicate. *)
  let split_keys lvars rvars preds =
    List.fold_left
      (fun (keys, residual) p ->
        match p with
        | Cmp (Eq, l, r) -> (
            let side t =
              let vs = List.filter scope_var (List.map fst (term_vars t)) in
              if vs = [] then `None
              else if List.for_all (fun v -> List.mem v lvars) vs then `L
              else if List.for_all (fun v -> List.mem v rvars) vs then `R
              else `Mixed
            in
            match (side l, side r) with
            | `L, `R -> (keys @ [ { Ir.outer = l; inner = r } ], residual)
            | `R, `L -> (keys @ [ { Ir.outer = r; inner = l } ], residual)
            | _ -> (keys, residual @ [ p ]))
        | _ -> (keys, residual @ [ p ]))
      ([], []) preds
  in
  let rec translate node : Ir.t =
    let mine = node_preds node in
    match node with
    | J_lit _ -> invalid_arg "Lower: literal leaf after prepare_join_literals"
    | J_var v -> filtered mine (leaf v)
    | J_inner l ->
        filtered mine
          (List.fold_left
             (fun acc child -> product acc (translate child))
             Ir.One l)
    | J_left (a, b) ->
        let pa = translate a and pb = translate b in
        let bvars = join_tree_vars b in
        let keys, residual = split_keys (join_tree_vars a) bvars mine in
        let matched = filtered mine (Ir.Product { left = pa; right = pb }) in
        let unmatched =
          List.fold_left
            (fun acc v -> null_pad v acc)
            (Ir.Semi
               {
                 anti = true;
                 input = pa;
                 sub = pb;
                 sub_vars = bvars;
                 keys;
                 residual;
               })
            bvars
        in
        Ir.Append [ matched; unmatched ]
    | J_full (a, b) ->
        let pa = translate a and pb = translate b in
        let avars = join_tree_vars a and bvars = join_tree_vars b in
        let keys, residual = split_keys avars bvars mine in
        let matched = filtered mine (Ir.Product { left = pa; right = pb }) in
        let left_unmatched =
          List.fold_left
            (fun acc v -> null_pad v acc)
            (Ir.Semi
               {
                 anti = true;
                 input = pa;
                 sub = pb;
                 sub_vars = bvars;
                 keys;
                 residual;
               })
            bvars
        in
        let swapped =
          List.map (fun k -> { Ir.outer = k.Ir.inner; inner = k.Ir.outer }) keys
        in
        let right_unmatched =
          List.fold_left
            (fun acc v -> null_pad v acc)
            (Ir.Semi
               {
                 anti = true;
                 input = pb;
                 sub = pa;
                 sub_vars = avars;
                 keys = swapped;
                 residual;
               })
            avars
        in
        Ir.Append [ matched; left_unmatched; right_unmatched ]
  in
  let tree_plan = translate tree in
  (* bindings not mentioned in the tree are implicit inner factors,
     chained after the tree exactly as in the plain path *)
  let missing, deferred =
    List.partition finite
      (List.filter (fun b -> not (List.mem b.var tree_vars)) scope.bindings)
  in
  let chain =
    List.fold_left (fun acc b -> extend_chain env acc b) tree_plan missing
  in
  let chain =
    List.fold_left
      (fun acc b -> Ir.Resolve { input = acc; binding = b; scope })
      chain deferred
  in
  (* head assignments are extracted from the residual (WHERE) conjuncts;
     the attached ON conditions already live inside the tree *)
  let assigns, residual = extract_assignments ~head (And residual_conjs) in
  finish_disjunct scope ~assigns ~conditions:(conjuncts residual) ~chain

(* ------------------------------------------------------------------ *)
(* Program lowering                                                    *)
(* ------------------------------------------------------------------ *)

(* The whole program as [lower_program] rewrites it, collection by
   collection, with every correlated γ∅ site it met: what fired, and why
   the rest declined. *)
let decorrelate env (prog : program) =
  Decorrelate.program_sites ~finite:(finite_rel env) prog

let lower_program env ~safe (prog : program) : Ir.program_plan =
  (* definition heads (safe and abstract) declare their schemas; register
     them so NULL pads over definition-bound variables carry them *)
  let env =
    {
      env with
      schemas =
        List.map (fun d -> (d.def_name, d.def_body.head.head_attrs)) prog.defs
        @ env.schemas;
    }
  in
  let scc_list, adj = Arc_core.Depend.sccs safe in
  let find n = List.find (fun d -> d.def_name = n) safe in
  let def_plan d =
    {
      Ir.dname = d.def_name;
      dcoll = d.def_body;
      dplan = lower_collection env d.def_body;
    }
  in
  let strata =
    List.map
      (fun component ->
        if Arc_core.Depend.is_recursive adj component then
          Ir.Recursive (List.map (fun n -> def_plan (find n)) component)
        else Ir.Nonrecursive (def_plan (find (List.hd component))))
      scc_list
  in
  let main =
    match prog.main with
    | Coll c -> Ir.Main_coll (lower_collection env c)
    | Sentence f -> Ir.Main_sentence f
  in
  { Ir.strata; main }
