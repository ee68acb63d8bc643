(** Seeded generation of random safe ARC cores and NULL-bearing databases.

    Programs are correct-by-construction against the grammar below, then
    gated through {!Arc_core.Analysis.validate} as a safety net (rejects are
    counted as skips by the driver, never silently dropped):

    {v
    program  ::= def? { Q(h0..hk) | disjunct (or disjunct)? }
    def      ::= transitive-closure-style recursive definition over the
                 guaranteed int-int prefix of R0
    disjunct ::= exists bindings correlated? [grouping?] [join-annotation?]
    correlated ::= x in {X(a0..) | exists y in R, gamma_0 [y.k = o.t
                 (and y.k' = o.t')? (and local)? and X.a = agg(y.c) ...]}
                 over the scope's own bindings o (sometimes a non-equality
                 correlation, which decorrelation declines)
                 (head-assignments ∧ comparisons ∧ null-tests ∧ likes
                  ∧ nested (not)? exists ...)
    join-annotation ::= an outer join over two or three of the bindings,
                 nesting left/full/inner joins and at most one literal
                 leaf (with a body comparison against its constant)
    v}

    Databases give every column a fixed type (so well-typed programs stay
    well-typed on every row) but salt ~15% of cells with NULL, and draw
    strings from a pool of delimiter/quote/marker-hostile values. *)

open Arc_core.Ast
module V = Arc_value.Value
module B = Arc_core.Build
module Agg = Arc_value.Aggregate
module Relation = Arc_relation.Relation
module Database = Arc_relation.Database

type ty = T_int | T_str | T_float | T_bool

type column = { col : string; cty : ty }
type table = { rel : string; cols : column list }

let pick st xs = List.nth xs (Random.State.int st (List.length xs))
let chance st p = Random.State.float st 1.0 < p

let str_pool =
  [ "a"; "b"; "it's"; "a,b"; "\""; ""; "null"; "x\ny"; "100% _sure_" ]

let float_pool = [ 0.5; 1.0; 2.25; 1e-7; 3.5 ]
let like_pool = [ "a%"; "%"; "_%"; "%'%"; "b_"; "a" ]

(* ------------------------------------------------------------------ *)
(* Schemas and databases                                               *)
(* ------------------------------------------------------------------ *)

let gen_schema st =
  let ntab = 2 + Random.State.int st 2 in
  List.init ntab (fun i ->
      let rel = Printf.sprintf "R%d" i in
      (* R0 always leads with two int columns, so joins and the recursive
         definition always have material to work with *)
      let arity =
        if i = 0 then 2 + Random.State.int st 2 else 1 + Random.State.int st 3
      in
      let cols =
        List.init arity (fun j ->
            let cty =
              if i = 0 && j < 2 then T_int
              else
                match Random.State.int st 10 with
                | 0 | 1 -> T_str
                | 2 -> T_float
                | 3 -> T_bool
                | _ -> T_int
            in
            { col = Printf.sprintf "c%d" j; cty })
      in
      { rel; cols })

let gen_value st ?(nulls = true) cty =
  if nulls && chance st 0.15 then V.Null
  else
    match cty with
    | T_int -> V.Int (Random.State.int st 5)
    | T_str -> V.Str (pick st str_pool)
    | T_float -> V.Float (pick st float_pool)
    | T_bool -> V.Bool (Random.State.bool st)

let gen_db st ?nulls tables =
  Database.of_list
    (List.map
       (fun t ->
         let nrows = Random.State.int st 8 in
         ( t.rel,
           Relation.of_rows ~name:t.rel
             (List.map (fun c -> c.col) t.cols)
             (List.init nrows (fun _ ->
                  List.map (fun c -> gen_value st ?nulls c.cty) t.cols)) ))
       tables)

(* ------------------------------------------------------------------ *)
(* Cores                                                               *)
(* ------------------------------------------------------------------ *)

(* attrs of a given type visible in an environment of bound variables *)
let attrs_of_ty env ty =
  List.concat_map
    (fun (v, t) ->
      List.filter_map
        (fun c -> if c.cty = ty then Some (v, c.col) else None)
        t.cols)
    env

let const_of st ty =
  B.const (gen_value st ~nulls:false ty)

(* an int-valued term over the environment: attr, constant, or arithmetic
   (division and modulo included deliberately — by-zero must yield NULL) *)
let rec int_term st env depth =
  let ints = attrs_of_ty env T_int in
  if depth > 0 && chance st 0.3 then
    let op = pick st [ B.add; B.sub; B.mul; B.div; B.mod_ ] in
    op (int_term st env (depth - 1)) (int_term st env (depth - 1))
  else if ints <> [] && chance st 0.8 then
    let v, a = pick st ints in
    B.attr v a
  else const_of st T_int

let term_of_ty st env ty =
  match ty with
  | T_int -> int_term st env (if chance st 0.5 then 1 else 0)
  | _ -> (
      let avail = attrs_of_ty env ty in
      if avail <> [] && chance st 0.8 then
        let v, a = pick st avail in
        B.attr v a
      else const_of st ty)

let cmp_ops_for = function
  | T_bool -> [ B.eq; B.neq ]
  | _ -> [ B.eq; B.neq; B.lt; B.leq; B.gt; B.geq ]

(* one comparison/null-test/LIKE conjunct over [env] (and [outer]) *)
let gen_comparison st env outer =
  let full = env @ outer in
  let tys =
    List.filter (fun ty -> attrs_of_ty full ty <> []) [ T_int; T_str; T_float; T_bool ]
  in
  if tys = [] then B.eq (B.cint 0) (B.cint 0)
  else
    let ty = pick st tys in
    let strs = attrs_of_ty full T_str in
    if ty = T_str && strs <> [] && chance st 0.25 then
      let v, a = pick st strs in
      B.like (B.attr v a) (pick st like_pool)
    else if chance st 0.15 then
      let avail = attrs_of_ty full ty in
      let v, a = pick st avail in
      if chance st 0.5 then B.is_null (B.attr v a) else B.not_null (B.attr v a)
    else
      let lhs = term_of_ty st full ty in
      let rhs =
        (* cross-scope link when an outer environment exists *)
        if outer <> [] && attrs_of_ty outer ty <> [] && chance st 0.6 then
          let v, a = pick st (attrs_of_ty outer ty) in
          B.attr v a
        else term_of_ty st full ty
      in
      (pick st (cmp_ops_for ty)) lhs rhs

(* aggregate term over the scope's own int/float attrs *)
let gen_aggregate st env =
  let nums = attrs_of_ty env T_int @ attrs_of_ty env T_float in
  match nums with
  | [] -> B.count (B.cint 1)
  | _ ->
      let v, a = pick st nums in
      let k = pick st [ B.sum; B.count; B.min_; B.max_; B.avg ] in
      k (B.attr v a)

(* A join annotation over the scope's bindings (two or three): an outer
   join at the root, any join below it, e.g. [left(a, inner(b, c))] or
   [full(a, left(b, c))]. With some chance one leaf [x] becomes
   [inner(c, x)] for a literal [c], and an int comparison against [c] is
   returned for the body, so the literal consumes it as an ON condition
   (Fig 12). *)
let gen_join_tree st bound =
  let outer a b = if chance st 0.5 then J_left (a, b) else J_full (a, b) in
  let any a b = if chance st 0.3 then J_inner [ a; b ] else outer a b in
  let ints = attrs_of_ty bound T_int in
  let lit =
    if ints <> [] && chance st 0.3 then Some (Random.State.int st 5) else None
  in
  let lit_at = Random.State.int st (List.length bound) in
  let leaves =
    List.mapi
      (fun i (v, _) ->
        match lit with
        | Some c when i = lit_at -> J_inner [ J_lit (V.Int c); J_var v ]
        | _ -> J_var v)
      bound
  in
  let tree =
    match leaves with
    | [ a; b; c ] ->
        if chance st 0.5 then outer a (any b c) else outer (any a b) c
    | [ a; b ] -> outer a b
    | _ -> invalid_arg "Gen.gen_join_tree: two or three bindings"
  in
  let conds =
    match lit with
    | Some c ->
        let v, a = pick st ints in
        [ (pick st [ B.eq; B.neq; B.lt; B.geq ]) (B.attr v a) (B.cint c) ]
    | None -> []
  in
  (tree, conds)

(* A correlated γ∅ nested collection over one inner binding (the paper's
   count-bug shape, Eqs 27–29, and perfbench's Q4/Q6):

     x ∈ {X(a0[, a1]) | ∃y ∈ R, γ∅[y.k = o.t [∧ y.k' = o.t'] [∧ local]
                                     ∧ X.a0 = agg(y.c) …]}

   keyed by one or two type-matched equalities on attributes of [outer]
   (NULL keys come from the data), with COUNT/SUM/AVG/MIN/MAX heads whose
   groups are often empty. One correlation in eight is a non-equality,
   which the decorrelation must decline. Returns the binding and the
   typed attributes it exposes, or [None] when no attribute of [outer]
   matches the inner relation's types. *)
let gen_correlated st ~srcs ~counter outer =
  let t = pick st srcs in
  incr counter;
  let y = Printf.sprintf "v%d" !counter in
  incr counter;
  let x = Printf.sprintf "v%d" !counter in
  let inner = [ (y, t) ] in
  let pairs =
    List.concat_map
      (fun ty ->
        List.concat_map
          (fun yk -> List.map (fun ot -> (yk, ot)) (attrs_of_ty outer ty))
          (attrs_of_ty inner ty))
      [ T_int; T_str; T_float; T_bool ]
  in
  if pairs = [] then None
  else
    let correlation () =
      let (yv, ya), (ov, oa) = pick st pairs in
      let yk = B.attr yv ya and ot = B.attr ov oa in
      if chance st 0.125 then (pick st [ B.lt; B.neq; B.geq ]) yk ot
      else if chance st 0.5 then B.eq yk ot
      else B.eq ot yk
    in
    let keys =
      List.init (if chance st 0.3 then 2 else 1) (fun _ -> correlation ())
    in
    let local =
      if chance st 0.4 then [ gen_comparison st inner [] ] else []
    in
    let nums = attrs_of_ty inner T_int @ attrs_of_ty inner T_float in
    let head_name = Printf.sprintf "X%d" !counter in
    let aggs =
      List.init
        (if chance st 0.3 then 2 else 1)
        (fun i ->
          let a = Printf.sprintf "a%d" i in
          let agg, ty =
            match nums with
            | [] -> (B.count (B.cint 1), T_int)
            | _ -> (
                let v, c = pick st nums in
                let cty = (List.find (fun col -> col.col = c) t.cols).cty in
                match Random.State.int st 5 with
                | 0 -> (B.count (B.attr v c), T_int)
                | 1 -> (B.sum (B.attr v c), cty)
                | 2 -> (B.avg (B.attr v c), T_float)
                | 3 -> (B.min_ (B.attr v c), cty)
                | _ -> (B.max_ (B.attr v c), cty))
          in
          (a, ty, agg))
    in
    let assigns =
      List.map (fun (a, _, agg) -> B.eq (B.attr head_name a) agg) aggs
    in
    let nested =
      B.collection head_name
        (List.map (fun (a, _, _) -> a) aggs)
        (B.exists ~grouping:[] [ B.bind y t.rel ]
           (B.conj (keys @ local @ assigns)))
    in
    let cols = List.map (fun (a, ty, _) -> { col = a; cty = ty }) aggs in
    Some (B.bind_in x nested, (x, { rel = head_name; cols }))

(* A quantifier scope. [head]: Some (attrs × types) when this scope is a
   disjunct of the main/def collection and must assign every head attr;
   None for nested (possibly negated) subscopes. *)
let rec gen_scope st ~srcs ~counter ~depth ~outer ~head ~head_name =
  let nbind = 1 + Random.State.int st (if depth = 0 then 3 else 2) in
  let bound =
    List.init nbind (fun _ ->
        let t = pick st srcs in
        incr counter;
        (Printf.sprintf "v%d" !counter, t))
  in
  let bindings = List.map (fun (v, t) -> B.bind v t.rel) bound in
  (* a top-level scope may close with a correlated γ∅ aggregate over its
     own bindings; its attributes join the environment, so head
     assignments and comparisons read them *)
  let bindings, env =
    match head with
    | Some _ when chance st 0.3 -> (
        match gen_correlated st ~srcs ~counter bound with
        | Some (b, xv) -> (bindings @ [ b ], bound @ [ xv ])
        | None -> (bindings, bound))
    | _ -> (bindings, bound)
  in
  let grouping =
    match head with
    | Some _ when chance st 0.3 ->
        let keys =
          List.concat_map
            (fun (v, t) ->
              List.filter_map
                (fun c -> if chance st 0.3 then Some (v, c.col) else None)
                t.cols)
            env
        in
        Some keys (* [] is γ∅ *)
    | _ -> None
  in
  let key_attrs ty =
    match grouping with
    | None -> attrs_of_ty env ty
    | Some keys ->
        List.filter
          (fun (v, a) ->
            List.exists
              (fun (v', t) ->
                v' = v && List.exists (fun c -> c.col = a && c.cty = ty) t.cols)
              env)
          keys
  in
  let assignments =
    match head with
    | None -> []
    | Some head_tys ->
        List.map
          (fun (h, ty) ->
            let target = B.attr head_name h in
            match grouping with
            | Some _ ->
                (* grouped: only keys, aggregates, or constants are legal *)
                let keyed = key_attrs ty in
                if (ty = T_int || ty = T_float) && chance st 0.5 then
                  B.eq target (gen_aggregate st env)
                else if keyed <> [] && chance st 0.8 then
                  let v, a = pick st keyed in
                  B.eq target (B.attr v a)
                else B.eq target (const_of st ty)
            | None -> B.eq target (term_of_ty st env ty))
          head_tys
  in
  let comparisons =
    List.init (Random.State.int st 3) (fun _ -> gen_comparison st env outer)
  in
  let agg_preds =
    match grouping with
    | Some _ when chance st 0.5 ->
        [ (pick st [ B.gt; B.leq; B.eq ]) (gen_aggregate st env) (B.cint 3) ]
    | _ -> []
  in
  let nested =
    if depth >= 2 then []
    else
      List.init
        (if chance st 0.35 then 1 else 0)
        (fun _ ->
          let inner =
            gen_scope st ~srcs ~counter ~depth:(depth + 1)
              ~outer:(env @ outer) ~head:None ~head_name
          in
          if chance st 0.7 then B.not_ inner else inner)
  in
  let join, lit_conds =
    (* join annotations on top-level scopes without nested subscopes,
       grouped ones included (the outer join feeds the aggregate) *)
    if head <> None && nested = [] && List.length bound >= 2 && chance st 0.2
    then
      let tree, conds = gen_join_tree st bound in
      (Some tree, conds)
    else (None, [])
  in
  let body =
    B.conj (assignments @ comparisons @ lit_conds @ agg_preds @ nested)
  in
  B.exists ?grouping ?join bindings body

(* transitive-closure-style recursive definition over R0's int-int prefix *)
let gen_recursive_def st tables =
  let r0 = List.hd tables in
  let c0 = (List.nth r0.cols 0).col and c1 = (List.nth r0.cols 1).col in
  let guard =
    if chance st 0.5 then []
    else [ B.leq (B.attr "e" c0) (B.cint (1 + Random.State.int st 3)) ]
  in
  let base =
    B.exists
      [ B.bind "e" r0.rel ]
      (B.conj
         ([ B.eq (B.attr "T" "x") (B.attr "e" c0);
            B.eq (B.attr "T" "y") (B.attr "e" c1) ]
         @ guard))
  in
  let step =
    B.exists
      [ B.bind "t" "T"; B.bind "e" r0.rel ]
      (B.conj
         [
           B.eq (B.attr "t" "y") (B.attr "e" c0);
           B.eq (B.attr "T" "x") (B.attr "t" "x");
           B.eq (B.attr "T" "y") (B.attr "e" c1);
         ])
  in
  B.define "T" (B.collection "T" [ "x"; "y" ] (B.disj [ base; step ]))

let gen_head st =
  let k = 1 + Random.State.int st 3 in
  List.init k (fun i ->
      let ty =
        match Random.State.int st 8 with
        | 0 | 1 -> T_str
        | 2 -> T_float
        | 3 -> T_bool
        | _ -> T_int
      in
      (Printf.sprintf "h%d" i, ty))

let gen_case st : Case.t =
  let tables = gen_schema st in
  let db = gen_db st tables in
  let recursive = chance st 0.25 in
  let defs = if recursive then [ gen_recursive_def st tables ] else [] in
  let srcs =
    tables
    @
    if recursive then
      [ { rel = "T"; cols = [ { col = "x"; cty = T_int }; { col = "y"; cty = T_int } ] } ]
    else []
  in
  let head = gen_head st in
  let counter = ref 0 in
  let ndisj = if chance st 0.35 then 2 else 1 in
  let disjuncts =
    List.init ndisj (fun _ ->
        gen_scope st ~srcs ~counter ~depth:0 ~outer:[] ~head:(Some head)
          ~head_name:"Q")
  in
  let main =
    B.collection "Q" (List.map fst head) (B.disj disjuncts)
  in
  { Case.prog = { defs; main = Coll main }; db }

(* ------------------------------------------------------------------ *)
(* TRC cases                                                           *)
(* ------------------------------------------------------------------ *)

(* Random textbook-TRC queries over a fixed R(a,b) ⋈ S(b,c) schema,
   exercising the permissive forms the normalizer must clarify: range
   sugar, floating membership atoms, negation, disjunction, and both
   forall styles (range sugar and the ¬∨ implication idiom). *)
type trc_case = { tq : Arc_trc.Trc.query; tdb : Database.t }

let gen_trc st : trc_case =
  let open Arc_trc.Trc in
  let int_col () =
    List.init (Random.State.int st 6) (fun _ ->
        if chance st 0.12 then V.Null else V.Int (Random.State.int st 4))
  in
  let rows2 () =
    let xs = int_col () and ys = int_col () in
    List.map2 (fun a b -> [ a; b ]) xs
      (List.init (List.length xs) (fun i ->
           try List.nth ys i with _ -> V.Int (Random.State.int st 4)))
  in
  let tdb =
    Database.of_list
      [
        ("R", Relation.of_rows ~name:"R" [ "a"; "b" ] (rows2 ()));
        ("S", Relation.of_rows ~name:"S" [ "b"; "c" ] (rows2 ()));
      ]
  in
  let attr v a = T_attr (v, a) in
  let cint n = T_const (V.Int n) in
  let cmp op l r = T_cmp (op, l, r) in
  let rand_cmp ~vars =
    let v, a = pick st vars in
    let op = pick st [ Eq; Neq; Lt; Leq; Gt; Geq ] in
    if chance st 0.5 then cmp op (attr v a) (cint (Random.State.int st 4))
    else
      let v', a' = pick st vars in
      cmp op (attr v a) (attr v' a')
  in
  let link = cmp Eq (attr "r" "b") (attr "s" "b") in
  let inner extra =
    T_and ([ T_member ("s", "S"); link ] @ extra)
  in
  let quantified =
    match Random.State.int st 6 with
    | 0 -> []
    | 1 -> [ T_exists ([ "s" ], inner []) ]
    | 2 ->
        [ T_exists ([ "s" ], inner [ rand_cmp ~vars:[ ("s", "b"); ("s", "c") ] ]) ]
    | 3 -> [ T_not (T_exists ([ "s" ], inner [])) ]
    | 4 ->
        (* forall with range sugar: ∀s∈S[φ] *)
        [
          T_forall
            ( [ "s" ],
              T_and
                [ T_member ("s", "S"); rand_cmp ~vars:[ ("s", "b"); ("r", "a") ] ]
            );
        ]
    | _ ->
        (* the textbook implication idiom: ∀s[¬(s∈S) ∨ φ] *)
        [
          T_forall
            ( [ "s" ],
              T_or
                [
                  T_not (T_member ("s", "S"));
                  rand_cmp ~vars:[ ("s", "c"); ("r", "b") ];
                ] );
        ]
  in
  let guards =
    List.init (Random.State.int st 2) (fun _ ->
        rand_cmp ~vars:[ ("r", "a"); ("r", "b") ])
  in
  let disjunctive g =
    if g <> [] && chance st 0.3 then
      [ T_or (g @ [ rand_cmp ~vars:[ ("r", "a") ] ]) ]
    else g
  in
  let head =
    ("r", "a") :: (if chance st 0.4 then [ ("r", "b") ] else [])
  in
  let body = T_and ([ T_member ("r", "R") ] @ disjunctive guards @ quantified) in
  { tq = { head; body }; tdb }

(* ------------------------------------------------------------------ *)
(* Datalog cases                                                       *)
(* ------------------------------------------------------------------ *)

(* Template-based Datalog programs over a fixed int EDB, exercising
   projection, join, comparison, stratified negation, recursion, and a
   Soufflé aggregate; evaluated both directly and through the ARC
   embedding by the oracle. *)
type datalog_case = {
  dprog : Arc_datalog.Ast.program;
  ddb : Database.t;
  dquery : string;
}

let gen_datalog st : datalog_case =
  let open Arc_datalog.Ast in
  let rel name arity size =
    ( name,
      Relation.of_rows ~name
        (List.init arity (fun i -> Printf.sprintf "a%d" (i + 1)))
        (List.init size (fun _ ->
             List.init arity (fun _ -> V.Int (Random.State.int st 5)))) )
  in
  let ddb =
    Database.of_list
      [
        rel "E" 2 (Random.State.int st 7);
        rel "F" 1 (Random.State.int st 5);
      ]
  in
  let atom pred args = { pred; args = List.map (fun v -> D_var v) args } in
  let var v = X_term (D_var v) in
  let const c = X_term (D_const (V.Int c)) in
  let proj = { head = atom "P" [ "x" ]; body = [ L_pos { pred = "E"; args = [ D_var "x"; D_wild ] } ] } in
  let join_rule =
    {
      head = atom "J" [ "x"; "z" ];
      body =
        [
          L_pos (atom "E" [ "x"; "y" ]);
          L_pos (atom "E" [ "y"; "z" ]);
        ]
        @
        if chance st 0.5 then
          [ L_cmp (Lt, var "x", const (1 + Random.State.int st 4)) ]
        else [];
    }
  in
  let tc =
    [
      { head = atom "T" [ "x"; "y" ]; body = [ L_pos (atom "E" [ "x"; "y" ]) ] };
      {
        head = atom "T" [ "x"; "z" ];
        body = [ L_pos (atom "T" [ "x"; "y" ]); L_pos (atom "E" [ "y"; "z" ]) ];
      };
    ]
  in
  let neg =
    {
      head = atom "N" [ "x" ];
      body = [ L_pos (atom "F" [ "x" ]); L_neg (atom "P" [ "x" ]) ];
    }
  in
  let agg =
    {
      head = atom "A" [ "s" ];
      body =
        [
          L_agg
            ( "s",
              pick st [ Agg.Sum; Agg.Count; Agg.Min; Agg.Max ],
              var "y",
              [ L_pos (atom "E" [ "x"; "y" ]) ] );
        ];
    }
  in
  let choice = Random.State.int st 5 in
  let dprog, dquery =
    match choice with
    | 0 -> ([ proj ], "P")
    | 1 -> ([ join_rule ], "J")
    | 2 -> (tc, "T")
    | 3 -> ([ proj; neg ], "N")
    | _ -> ([ agg ], "A")
  in
  { dprog; ddb; dquery }
