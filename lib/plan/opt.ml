open Arc_core.Ast

(* Each pass is a pure, named [coll_plan -> coll_plan] function so that
   `arc explain` can report which rewrites fired. Passes only restructure
   the enumeration; the per-row semantics (term/predicate evaluation,
   resolution, aggregation) are untouched, which is what the differential
   and property tests check. *)
type pass = { name : string; transform : env -> Ir.coll_plan -> Ir.coll_plan }

and env = Lower.env

(* ------------------------------------------------------------------ *)
(* Shared traversal: apply [f] to every pipeline rooted in a plan,      *)
(* including sub-plans of nested collections and semi-join subtrees.    *)
(* ------------------------------------------------------------------ *)

let rec map_nested f n =
  match Ir.map_children (map_nested f) n with
  | (Ir.D _ | Ir.T (Ir.Append _)) as n ->
      (* a disjunct's input and each append branch are pipeline roots *)
      Ir.map_children (fun c -> Ir.T (f (Ir.to_t c))) n
  | Ir.T (Ir.Semi s) -> Ir.T (Ir.Semi { s with sub = f s.sub })
  | n -> n

let map_pipelines (f : Ir.t -> Ir.t) (p : Ir.coll_plan) : Ir.coll_plan =
  Ir.to_c (map_nested f (Ir.C p))

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

(* ------------------------------------------------------------------ *)
(* Pass 1: predicate pushdown                                          *)
(* ------------------------------------------------------------------ *)

(* Sink a predicate as deep as its variable set allows: into a scan's
   filter list when it touches a single scope variable, below resolves and
   semi-joins it does not depend on, down the covering side of a product.
   [rv] is the predicate's variable set restricted to the variables bound
   within the tree it is being pushed into. *)
let filter_above t pd =
  match t with
  | Ir.Filter f -> Ir.Filter { f with preds = f.preds @ [ pd ] }
  | _ -> Ir.Filter { input = t; preds = [ pd ] }

let rec sink rv pd (t : Ir.t) : Ir.t =
  match t with
  | Scan s when subset rv [ s.var ] ->
      Scan { s with filters = s.filters @ [ pd ] }
  | Product { left; right } ->
      if subset rv (Ir.bound_vars left) then
        Product { left = sink rv pd left; right }
      else if subset rv (Ir.bound_vars right) then
        Product { left; right = sink rv pd right }
      else filter_above t pd
  | Hash_join j ->
      if subset rv (Ir.bound_vars j.left) then
        Hash_join { j with left = sink rv pd j.left }
      else if subset rv (Ir.bound_vars j.right) then
        Hash_join { j with right = sink rv pd j.right }
      else filter_above t pd
  | Filter f -> Filter { f with input = sink rv pd f.input }
  | Semi s -> Semi { s with input = sink rv pd s.input }
  | Resolve r when not (List.mem r.binding.var rv) ->
      Resolve { r with input = sink rv pd r.input }
  | Lateral l when not (List.mem l.var rv) ->
      Lateral { l with input = sink rv pd l.input }
  (* a filter distributes over a bag union: push into every branch *)
  | Append ts -> Append (List.map (sink rv pd) ts)
  | _ -> filter_above t pd

let pushdown_pipeline (t : Ir.t) : Ir.t =
  let rec go t =
    match t with
    | Ir.Residual { input; conjs } ->
        let input = go input in
        let pushable, rest =
          List.partition
            (fun f ->
              match f with
              | Pred p -> not (pred_has_agg p)
              | _ -> false)
            conjs
        in
        let scope_vars = Ir.bound_vars input in
        let input =
          List.fold_left
            (fun acc f ->
              match f with
              | Pred p ->
                  let rv =
                    List.filter
                      (fun v -> List.mem v scope_vars)
                      (Ir.pred_ref_vars p)
                  in
                  sink rv p acc
              | _ -> acc)
            input pushable
        in
        if rest = [] then input else Residual { input; conjs = rest }
    | Ir.Filter { input; preds } ->
        let input = go input in
        let scope_vars = Ir.bound_vars input in
        List.fold_left
          (fun acc p ->
            let rv =
              List.filter (fun v -> List.mem v scope_vars) (Ir.pred_ref_vars p)
            in
            sink rv p acc)
          input preds
    | Ir.Resolve r -> Resolve { r with input = go r.input }
    | Ir.Semi s -> Semi { s with input = go s.input }
    | t -> t
  in
  go t

(* Order each scan's filter list by ascending estimated selectivity: the
   most selective predicate runs first, so later (more expensive)
   predicates see fewer rows. Predicate evaluation is pure and conjunction
   is commutative under both null logics, so only cost changes. Without
   statistics every predicate scores 0.5, so the order is untouched. *)
let order_scan_filters (env : env) (t : Ir.t) : Ir.t =
  let sort_filters var rel filters =
    let smap = [ (var, rel) ] in
    let keyed =
      List.mapi
        (fun i p ->
          let sel =
            match Card.pred_sel env.Lower.stats smap p with
            | Some (f, _) -> f
            | None -> 0.5
          in
          ((sel, i), p))
        filters
    in
    List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) keyed)
  in
  (* every scan of the pipeline, nested sub-plans included *)
  let rec go n =
    match Ir.map_children go n with
    | Ir.T (Ir.Scan s) when List.length s.filters > 1 ->
        Ir.T (Ir.Scan { s with filters = sort_filters s.var s.rel s.filters })
    | n -> n
  in
  Ir.to_t (go (Ir.T t))

let pass_pushdown =
  {
    name = "predicate-pushdown";
    transform =
      (fun env p ->
        map_pipelines
          (fun t -> order_scan_filters env (pushdown_pipeline t))
          p);
  }

(* ------------------------------------------------------------------ *)
(* Pass 2: decorrelate EXISTS / NOT EXISTS into hash semi/anti-joins    *)
(* ------------------------------------------------------------------ *)

(* A sub-scope is convertible when it is a plain conjunctive scope over
   finite base relations: no grouping, no join annotation, every conjunct a
   non-aggregating predicate. Its conjuncts split into sub-local filters
   (pushed into the sub-scans), equality correlation keys, and residual
   predicates checked per (outer row, sub row) pair. *)
let convertible env (s : scope) =
  s.grouping = None && s.join = None && s.bindings <> []
  && List.for_all
       (fun b ->
         match b.source with
         | Base n -> Lower.source_finite env (Base n)
         | Nested _ -> false)
       s.bindings
  && List.for_all
       (fun f ->
         match f with Pred p -> not (pred_has_agg p) | _ -> false)
       (conjuncts s.body)

let build_semi env ~anti input (s : scope) : Ir.t =
  let sub_vars = List.map (fun b -> b.var) s.bindings in
  let sub_chain =
    List.fold_left
      (fun acc b ->
        match b.source with
        | Base n ->
            Lower.product acc
              (Ir.Scan
                 { var = b.var; rel = n; filters = []; card = Lower.card env n })
        | Nested _ -> assert false)
      Ir.One s.bindings
  in
  let sub_filters = ref [] in
  let keys = ref [] in
  let residual = ref [] in
  List.iter
    (fun f ->
      match f with
      | Pred p -> (
          let vs = Ir.pred_ref_vars p in
          let subrefs = List.filter (fun v -> List.mem v sub_vars) vs in
          let outrefs = List.filter (fun v -> not (List.mem v sub_vars)) vs in
          if subrefs <> [] && outrefs = [] then
            sub_filters := !sub_filters @ [ p ]
          else
            match p with
            | Cmp (Eq, l, r)
              when (not (term_has_agg l)) && not (term_has_agg r) ->
                let lv = Ir.term_ref_vars l and rv = Ir.term_ref_vars r in
                let sub_side t = subset t sub_vars in
                let outer_side t =
                  List.for_all (fun v -> not (List.mem v sub_vars)) t
                in
                if sub_side lv && lv <> [] && outer_side rv then
                  keys := !keys @ [ { Ir.outer = r; inner = l } ]
                else if sub_side rv && rv <> [] && outer_side lv then
                  keys := !keys @ [ { Ir.outer = l; inner = r } ]
                else residual := !residual @ [ p ]
            | _ -> residual := !residual @ [ p ])
      | _ -> assert false)
    (conjuncts s.body);
  let sub =
    List.fold_left
      (fun acc p ->
        let rv =
          List.filter (fun v -> List.mem v sub_vars) (Ir.pred_ref_vars p)
        in
        sink rv p acc)
      sub_chain !sub_filters
  in
  Semi { anti; input; sub; sub_vars; keys = !keys; residual = !residual }

let decorrelate_pipeline env (t : Ir.t) : Ir.t =
  let rec go t =
    match t with
    | Ir.Residual { input; conjs } ->
        let input = go input in
        let input, rest =
          List.fold_left
            (fun (input, rest) f ->
              match f with
              | Exists s when convertible env s ->
                  (build_semi env ~anti:false input s, rest)
              | Not (Exists s) when convertible env s ->
                  (build_semi env ~anti:true input s, rest)
              | f -> (input, rest @ [ f ]))
            (input, []) conjs
        in
        if rest = [] then input else Residual { input; conjs = rest }
    | Ir.Filter f -> Filter { f with input = go f.input }
    | Ir.Resolve r -> Resolve { r with input = go r.input }
    | Ir.Semi s -> Semi { s with input = go s.input }
    | t -> t
  in
  go t

let pass_decorrelate =
  {
    name = "decorrelate-exists";
    transform = (fun env p -> map_pipelines (decorrelate_pipeline env) p);
  }

(* ------------------------------------------------------------------ *)
(* Pass 3: hash-join formation and greedy input ordering               *)
(* ------------------------------------------------------------------ *)

(* Flatten a Product/Filter region into independent units plus predicates,
   then rebuild a left-deep tree greedily: start from the smallest estimated
   unit; repeatedly join the smallest unit reachable through an equality
   (hash join), falling back to the smallest remaining unit (product).
   Predicates become hash keys when one side evaluates on the bound prefix
   and the other on the new unit alone; they are applied as filters at the
   first point all their variables are bound.

   Estimates come from [Card]. Each unit's estimate is computed once and
   memoized; each joinable candidate is ranked by the estimated output of
   the join it would form. *)
let reorder_region (env : env) (t : Ir.t) : Ir.t =
  let rec flatten t =
    match t with
    | Ir.Product { left; right } ->
        let ul, pl = flatten left and ur, pr = flatten right in
        (ul @ ur, pl @ pr)
    | Ir.Filter { input; preds } ->
        let u, p = flatten input in
        (u, p @ preds)
    | Ir.One -> ([], [])
    | t -> ([ t ], [])
  in
  let units, preds = flatten t in
  match units with
  | [] | [ _ ] ->
      (* nothing to reorder; reattach filters *)
      let base = match units with [] -> Ir.One | u :: _ -> u in
      List.fold_left filter_above base preds
  | _ ->
      let region_vars = List.concat_map Ir.bound_vars units in
      let rv_of p =
        List.filter (fun v -> List.mem v region_vars) (Ir.pred_ref_vars p)
      in
      let key_for bound unit_vars p =
        match p with
        | Cmp (Eq, l, r) when (not (term_has_agg l)) && not (term_has_agg r)
          ->
            let lv = List.filter (fun v -> List.mem v region_vars)
                (Ir.term_ref_vars l)
            and rv = List.filter (fun v -> List.mem v region_vars)
                (Ir.term_ref_vars r)
            in
            if subset lv bound && subset rv unit_vars && rv <> [] then
              Some { Ir.outer = l; inner = r }
            else if subset rv bound && subset lv unit_vars && lv <> [] then
              Some { Ir.outer = r; inner = l }
            else None
        | _ -> None
      in
      let stats = env.Lower.stats in
      let unit_est =
        List.map (fun u -> (u, Card.rows (Card.estimate stats u))) units
      in
      let est u = List.assq u unit_est in
      let by_est us =
        List.map snd
          (List.stable_sort
             (fun (a, _) (b, _) -> compare a b)
             (List.map (fun u -> (est u, u)) us))
      in
      let first = List.hd (by_est units) in
      let remaining = ref (List.filter (fun u -> u != first) units) in
      let pending = ref preds in
      let acc = ref first in
      let bound = ref (Ir.bound_vars first) in
      let apply_bound_preds () =
        let applicable, rest =
          List.partition (fun p -> subset (rv_of p) !bound) !pending
        in
        pending := rest;
        List.iter (fun p -> acc := filter_above !acc p) applicable
      in
      apply_bound_preds ();
      while !remaining <> [] do
        let candidates =
          List.filter_map
            (fun u ->
              let uv = Ir.bound_vars u in
              let keys = List.filter_map (key_for !bound uv) !pending in
              if keys = [] then None else Some (u, keys))
            !remaining
        in
        let next, keys =
          match candidates with
          | [] -> (List.hd (by_est !remaining), [])
          | _ ->
              let scored =
                List.map
                  (fun (u, keys) ->
                    ( Card.rows
                        (Card.estimate stats
                           (Ir.Hash_join { left = !acc; right = u; keys })),
                      (u, keys) ))
                  candidates
              in
              snd
                (List.hd
                   (List.stable_sort (fun (a, _) (b, _) -> compare a b) scored))
        in
        remaining := List.filter (fun u -> u != next) !remaining;
        let key_preds =
          List.filter
            (fun p ->
              List.exists
                (fun k ->
                  match p with
                  | Cmp (Eq, l, r) ->
                      (equal_term l k.Ir.outer && equal_term r k.Ir.inner)
                      || (equal_term r k.Ir.outer && equal_term l k.Ir.inner)
                  | _ -> false)
                keys)
            !pending
        in
        pending := List.filter (fun p -> not (List.memq p key_preds)) !pending;
        acc :=
          (if keys = [] then Ir.Product { left = !acc; right = next }
           else Ir.Hash_join { left = !acc; right = next; keys });
        bound := Ir.bound_vars next @ !bound;
        apply_bound_preds ()
      done;
      List.iter (fun p -> acc := filter_above !acc p) !pending;
      !acc

(* Semi/anti placement: a semi-join whose outer references all live on one
   side of the join below it commutes with that join (each joined row
   passes iff its one-sided prefix does), so it can run before the join
   and shrink the probe input. Only kept when the estimated cost does not
   grow. *)
let reorder_pipeline (env : env) (t : Ir.t) : Ir.t =
  let cost t = Card.rows (Card.estimate env.Lower.stats t) in
  let rec sink_semi t =
    match t with
    | Ir.Semi s -> (
        let refs =
          List.filter
            (fun v -> not (List.mem v s.sub_vars))
            (List.concat_map (fun k -> Ir.term_ref_vars k.Ir.outer) s.keys
            @ List.concat_map Ir.pred_ref_vars s.residual)
        in
        match s.input with
        | Ir.Hash_join j when subset refs (Ir.bound_vars j.left) ->
            let sunk =
              Ir.Hash_join
                { j with left = sink_semi (Ir.Semi { s with input = j.left }) }
            in
            if cost sunk <= cost t then sunk else t
        | Ir.Hash_join j when subset refs (Ir.bound_vars j.right) ->
            let sunk =
              Ir.Hash_join
                { j with right = sink_semi (Ir.Semi { s with input = j.right })
                }
            in
            if cost sunk <= cost t then sunk else t
        | Ir.Product p when subset refs (Ir.bound_vars p.left) ->
            let sunk =
              Ir.Product
                { p with left = sink_semi (Ir.Semi { s with input = p.left }) }
            in
            if cost sunk <= cost t then sunk else t
        | Ir.Product p when subset refs (Ir.bound_vars p.right) ->
            let sunk =
              Ir.Product
                { p with right = sink_semi (Ir.Semi { s with input = p.right })
                }
            in
            if cost sunk <= cost t then sunk else t
        | _ -> t)
    | t -> t
  in
  let rec go t =
    match t with
    | Ir.Product _ | Ir.Filter _ ->
        (* recurse into units first, then rebuild this region *)
        let t =
          match t with
          | Ir.Product { left; right } ->
              Ir.Product { left = go left; right = go right }
          | Ir.Filter f -> Ir.Filter { f with input = go f.input }
          | t -> t
        in
        reorder_region env t
    | Ir.Residual r -> Residual { r with input = go r.input }
    | Ir.Semi s ->
        sink_semi (Ir.Semi { s with input = go s.input })
    | Ir.Resolve r -> Resolve { r with input = go r.input }
    | Ir.Lateral l -> Lateral { l with input = go l.input }
    | t -> t
  in
  go t

let pass_reorder =
  {
    name = "hash-join-order";
    transform = (fun env p -> map_pipelines (reorder_pipeline env) p);
  }

(* ------------------------------------------------------------------ *)
(* Pass 4: dead-column pruning                                         *)
(* ------------------------------------------------------------------ *)

let union_vars a b = a @ List.filter (fun v -> not (List.mem v a)) b

let wrap needed t =
  let bv = Ir.bound_vars t in
  let keep = List.filter (fun v -> List.mem v needed) bv in
  if List.length keep < List.length bv then Ir.Prune { input = t; keep }
  else t

let rec prune_t needed (t : Ir.t) : Ir.t =
  match t with
  | One | Scan _ | Subquery _ -> t
  | Prune { input; _ } -> prune_t needed input
  | Product { left; right } ->
      let nl = union_vars needed (Ir.ref_vars (Ir.T right)) in
      Product
        {
          left = wrap nl (prune_t nl left);
          right = wrap needed (prune_t needed right);
        }
  | Hash_join { left; right; keys } ->
      let nl =
        union_vars needed
          (List.concat_map (fun k -> Ir.term_ref_vars k.Ir.outer) keys)
      in
      let nr =
        union_vars needed
          (List.concat_map (fun k -> Ir.term_ref_vars k.Ir.inner) keys)
      in
      Hash_join
        { left = wrap nl (prune_t nl left); right = wrap nr (prune_t nr right);
          keys }
  | Filter { input; preds } ->
      let n = union_vars needed (List.concat_map Ir.pred_ref_vars preds) in
      Filter { input = prune_t n input; preds }
  | Residual { input; conjs } ->
      let n = union_vars needed (List.concat_map Ir.formula_ref_vars conjs) in
      Residual { input = prune_t n input; conjs }
  | Semi s ->
      let n =
        union_vars needed
          (List.concat_map (fun k -> Ir.term_ref_vars k.Ir.outer) s.keys
          @ List.concat_map Ir.pred_ref_vars s.residual)
      in
      let sub_needed =
        List.concat_map (fun k -> Ir.term_ref_vars k.Ir.inner) s.keys
        @ List.concat_map Ir.pred_ref_vars s.residual
      in
      Semi
        {
          s with
          input = prune_t n s.input;
          sub = wrap sub_needed (prune_t sub_needed s.sub);
        }
  | Resolve r ->
      let n = union_vars needed (Ir.formula_ref_vars r.scope.body) in
      Resolve { r with input = prune_t n r.input }
  | Lateral l ->
      let n = union_vars needed (Ir.ref_vars (Ir.C l.plan)) in
      Lateral { l with input = prune_t n l.input }
  (* branches bind the same variable set; prune each with the same needs *)
  | Append ts -> Append (List.map (prune_t needed) ts)

(* Prune each disjunct's input to what the disjunct itself references,
   then recurse into nested collection plans. *)
let rec deep_prune n =
  let n =
    match n with
    | Ir.D _ ->
        let needed = Ir.own_ref_vars n in
        Ir.map_children
          (fun i -> Ir.T (wrap needed (prune_t needed (Ir.to_t i))))
          n
    | _ -> n
  in
  Ir.map_children deep_prune n

let pass_prune =
  {
    name = "prune-columns";
    transform = (fun _env p -> Ir.to_c (deep_prune (Ir.C p)));
  }

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let pipeline = [ pass_pushdown; pass_decorrelate; pass_reorder; pass_prune ]

let optimize_coll ?(passes = pipeline) env (p : Ir.coll_plan) =
  List.fold_left
    (fun (p, report) pass ->
      let p' = pass.transform env p in
      (p', report @ [ (pass.name, p' <> p) ]))
    (p, []) passes

(* ------------------------------------------------------------------ *)
(* AST-level pass: demand / magic sets                                 *)
(* ------------------------------------------------------------------ *)

(* Goal-directed recursion: when a recursive definition D is only ever
   consumed through constant selections on one head attribute (the query
   asks for T(c, _), not all of T), the full fixpoint derives facts the
   query immediately throws away. The rewrite materializes the demanded
   constants as a one-column magic relation __magic__D and guards every
   disjunct of D with a join against it, so the fixpoint only derives
   facts whose bound attribute is demanded.

   The restriction is sound only when the bound attribute passes through
   the recursion unchanged — every recursive occurrence t of D inside
   its own body must carry a top-level equality D.a = t.a. Then the
   guarded fixpoint computes exactly σ_{a ∈ seeds}(D) (induction on
   derivation depth: a base fact with a ∈ seeds passes the guard; a
   derived fact inherits a from a recursive fact that, by hypothesis,
   was already derived), and every use site re-applies its own constant,
   so query results are unchanged. Linear recursions whose bound side
   shifts through the recursion (e.g. left-linear TC bound on src) would
   need derived magic rules and are left alone. *)

let magic_prefix = "__magic__"

(* For every binding of [rel] in the query, the (attr, const) selections
   its enclosing scope applies as top-level conjuncts. A use site with no
   selection contributes []. *)
let rec formula_uses rel acc f =
  match f with
  | True | Pred _ -> acc
  | And fs | Or fs -> List.fold_left (formula_uses rel) acc fs
  | Not f -> formula_uses rel acc f
  | Exists s -> scope_uses rel acc s

and scope_uses rel acc s =
  let cs = conjuncts s.body in
  let acc =
    List.fold_left
      (fun acc b ->
        match b.source with
        | Base n when n = rel ->
            List.filter_map
              (fun f ->
                match f with
                | Pred (Cmp (Eq, Attr (v, a), Const c))
                | Pred (Cmp (Eq, Const c, Attr (v, a)))
                  when v = b.var ->
                    Some (a, c)
                | _ -> None)
              cs
            :: acc
        | Base _ -> acc
        | Nested c -> formula_uses rel acc c.body)
      acc s.bindings
  in
  formula_uses rel acc s.body

let query_uses rel = function
  | Coll c -> formula_uses rel [] c.body
  | Sentence f -> formula_uses rel [] f

(* The rewrite fires for a definition D when: D is self-recursive; no
   other definition uses it; every use site in the main query selects a
   constant on the same head attribute a; and every disjunct of D's body
   is a plain scope (no grouping or join annotation) whose recursive
   bindings pass a through unchanged and which does not mention D any
   deeper. Returns the bound attribute, the magic relation name, and the
   distinct demanded constants. *)
let magic_candidate (prog : program) (d : definition) =
  let h = d.def_body.head.head_attrs in
  let hname = d.def_body.head.head_name in
  let mname = magic_prefix ^ d.def_name in
  let others = List.filter (fun d' -> d'.def_name <> d.def_name) prog.defs in
  let refs = Arc_core.Depend.refs in
  let self_rec = List.mem d.def_name (refs d.def_body.body) in
  let main_only =
    not
      (List.exists
         (fun d' -> List.mem d.def_name (refs d'.def_body.body))
         others)
  in
  let no_collision =
    (not (List.exists (fun d' -> d'.def_name = mname) prog.defs))
    && not
         (List.mem mname
            (List.concat_map (fun d' -> refs d'.def_body.body) prog.defs
            @ refs (match prog.main with Coll c -> c.body | Sentence f -> f)))
  in
  if not (self_rec && main_only && no_collision) then None
  else
    let uses = query_uses d.def_name prog.main in
    if uses = [] then None
    else
      let bound_attr =
        List.find_opt
          (fun a ->
            List.for_all
              (fun sels -> List.exists (fun (a', _) -> a' = a) sels)
              uses)
          h
      in
      match bound_attr with
      | None -> None
      | Some a ->
          let ok_disjunct f =
            match f with
            | Exists s ->
                s.grouping = None && s.join = None
                && (not (List.mem d.def_name (refs s.body)))
                && List.for_all
                     (fun b ->
                       match b.source with
                       | Base n when n = d.def_name ->
                           List.exists
                             (fun f ->
                               match f with
                               | Pred (Cmp (Eq, Attr (x, ax), Attr (y, ay)))
                                 ->
                                   ax = a && ay = a
                                   && ((x = hname && y = b.var)
                                      || (x = b.var && y = hname))
                               | _ -> false)
                             (conjuncts s.body)
                       | Base _ -> true
                       | Nested c ->
                           not
                             (List.mem d.def_name (refs c.body)))
                     s.bindings
            | _ -> false
          in
          if not (List.for_all ok_disjunct (disjuncts d.def_body.body)) then
            None
          else
            let seeds =
              List.fold_left
                (fun acc sels ->
                  List.fold_left
                    (fun acc (a', c) ->
                      if a' = a && not (List.exists (Arc_value.Value.equal c) acc)
                      then acc @ [ c ]
                      else acc)
                    acc sels)
                [] uses
            in
            if seeds = [] then None else Some (a, mname, seeds)

(* One seed disjunct per demanded constant. Each seed is wrapped in an
   empty quantifier scope: a bare predicate disjunct would be rejected as
   unsafe (no scope to range-restrict the head), while an empty scope
   restricts the head attribute through the constant equality itself. *)
let magic_def mname a seeds =
  {
    def_name = mname;
    def_body =
      {
        head = { head_name = mname; head_attrs = [ a ] };
        body =
          Or
            (List.map
               (fun c ->
                 Exists
                   {
                     bindings = [];
                     grouping = None;
                     join = None;
                     body = Pred (Cmp (Eq, Attr (mname, a), Const c));
                   })
               seeds);
      };
  }

(* guard every disjunct of D with a join against the magic relation *)
let magic_guard_def (d : definition) a mname =
  let hname = d.def_body.head.head_name in
  let guard f =
    match f with
    | Exists s ->
        let used = List.map (fun b -> b.var) s.bindings in
        let rec fresh v = if List.mem v used then fresh (v ^ "_") else v in
        let mv = fresh "__m" in
        Exists
          {
            s with
            bindings = s.bindings @ [ { var = mv; source = Base mname } ];
            body =
              And
                (conjuncts s.body
                @ [ Pred (Cmp (Eq, Attr (hname, a), Attr (mv, a))) ]);
          }
    | f -> f
  in
  {
    d with
    def_body =
      {
        d.def_body with
        body = Or (List.map guard (disjuncts d.def_body.body));
      };
  }

let magic_sets (prog : program) : program * bool =
  let defs, changed =
    List.fold_left
      (fun (defs, changed) d ->
        match magic_candidate prog d with
        | Some (a, mname, seeds) ->
            (defs @ [ magic_def mname a seeds; magic_guard_def d a mname ], true)
        | None -> (defs @ [ d ], changed))
      ([], false) prog.defs
  in
  ({ prog with defs }, changed)

let optimize ?(passes = pipeline) env (pp : Ir.program_plan) =
  let changed = Hashtbl.create 8 in
  let note report =
    List.iter
      (fun (n, c) ->
        Hashtbl.replace changed n
          (c || Option.value ~default:false (Hashtbl.find_opt changed n)))
      report
  in
  let opt_coll p =
    let p', report = optimize_coll ~passes env p in
    note report;
    p'
  in
  let opt_def dp = { dp with Ir.dplan = opt_coll dp.Ir.dplan } in
  let strata =
    List.map
      (fun s ->
        match s with
        | Ir.Nonrecursive dp -> Ir.Nonrecursive (opt_def dp)
        | Ir.Recursive dps -> Ir.Recursive (List.map opt_def dps))
      pp.Ir.strata
  in
  let main =
    match pp.Ir.main with
    | Ir.Main_coll p -> Ir.Main_coll (opt_coll p)
    | Ir.Main_sentence f -> Ir.Main_sentence f
  in
  let report =
    List.map
      (fun pass ->
        ( pass.name,
          Option.value ~default:false (Hashtbl.find_opt changed pass.name) ))
      passes
  in
  ({ Ir.strata; main }, report)
