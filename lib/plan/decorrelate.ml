(* Count-bug-correct decorrelation of correlated γ∅ aggregates: a pure
   ARC → ARC rewrite, applied by [Lower] to every collection before it
   lowers the collection's nested sources.

   A site is a binding [X ∈ N] of a top-level disjunct scope whose nested
   collection is correlated and aggregates over a single γ∅ scope:

     ∃o…, X ∈ {H(a…) | ∃y… ∈ R…, γ∅[local ∧ y.k = o.t … ∧ H.a = agg(…)]} [body]

   Executed as written, [N] is a lateral: its sub-plan runs once per outer
   row. Unnesting it by join + group-by alone is the count bug (paper,
   Fig 21, Eqs 27–29; Kim 1982, Ganski & Wong 1987): an outer row whose
   group is empty loses its row instead of receiving the aggregate of the
   empty group. The rewrite keeps that row with a second, padding branch
   (Neumann & Kemper, "Unnesting Arbitrary Queries", BTW 2015):

     ∃o…, X ∈ {H(k…, a…) | ∃y…, γ_{y.k}[local ∧ H.k = y.k ∧ H.a = agg(…)]}
       [o.t = X.k ∧ body]
   ∨ ∃o…, X ∈ {H(a…) | ∃y…, γ∅[false ∧ H.a = agg(…)]}
       [¬∃y…[local ∧ y.k = o.t] ∧ body]

   The matched branch groups the inner relation once and joins it back on
   the correlation keys. The pad collection is the aggregate of the empty
   group, evaluated by the same γ∅ machinery as the original, so COUNT is
   0 and SUM/AVG/MIN/MAX follow [agg_empty] under every convention without
   the rewrite knowing which one is in force. Both new collections are
   uncorrelated, so the existing passes plan them as a hash join on a
   once-grouped subquery and a hash anti join.

   The rewrite is exact because equality on values is the equivalence the
   grouping hashes by ([Value.key_equal], which equates what
   [Value.canonical] equates: [Int 1] and [Float 1.0] share a group and
   compare equal; under three-valued logic a NULL key matches
   nothing on either side, under two-valued logic NULL = NULL on both). An
   outer row with a non-empty group therefore joins exactly one grouped row,
   whose aggregate ranges over exactly that group; an outer row with an
   empty group joins none and passes the anti join instead.

   A site declines, and keeps its lateral, when the enclosing scope is
   grouped or join-annotated; the inner scope is join-annotated, compares
   an aggregate (Eq 27's shape), reads a non-finite or nested source, or is
   correlated other than by [inner attribute = outer attribute]; or a head
   attribute is not an aggregate of the inner scope alone. A definition the
   inner scope reads is necessarily in a lower stratum: stratification
   rejects aggregation through recursion before anything is lowered. *)

open Arc_core.Ast
module Analysis = Arc_core.Analysis
module Canon = Arc_core.Canon

type outcome = Fired | Declined of string

type site = { binder : var; nested : rel_name; outcome : outcome }
(** One correlated γ∅ binding [binder ∈ nested(…)] and what the rewrite did
    with it. *)

let fired s = s.outcome = Fired

let site_to_string s =
  match s.outcome with
  | Fired -> Printf.sprintf "decorrelate-aggregates: %s \xe2\x88\x88 %s unnested" s.binder s.nested
  | Declined why ->
      Printf.sprintf "decorrelate-aggregates declined %s \xe2\x88\x88 %s: %s"
        s.binder s.nested why

exception Decline of string

let decline fmt = Printf.ksprintf (fun m -> raise (Decline m)) fmt

let free_vars f = Analysis.free_vars_query (Sentence f)

(* the single γ∅ scope of a nested collection, if that is its shape *)
let gamma0_scope (n : collection) =
  match Canon.simplify_formula n.body with
  | Exists ({ grouping = Some []; _ } as s) -> Some s
  | _ -> None

(* A head term of the inner scope that both branches can compute: every
   attribute it reads is an inner variable read under an aggregate. *)
let rec aggregate_only inner = function
  | Const _ -> true
  | Attr _ -> false
  | Scalar (_, ts) -> List.for_all (aggregate_only inner) ts
  | Agg (_, t) -> List.for_all (fun (v, _) -> List.mem v inner) (term_vars t)

(* [name], or [name_1], [name_2], … — the first not in [taken] *)
let fresh taken name =
  let rec go i =
    let n = if i = 0 then name else Printf.sprintf "%s_%d" name i in
    if List.mem n taken then go (i + 1) else n
  in
  go 0

(* The two rewritten scopes for the site [b ∈ n] (inner scope [s]) of the
   disjunct scope [outer], or [Decline] with the reason. [visible]: the
   variables an outer reference may name — bindings of [outer] before [b],
   and the enclosing collection's own free variables. *)
let rewrite_site ~finite ~visible (outer : scope) (b : binding) (n : collection)
    (s : scope) : scope * scope =
  if outer.grouping <> None then decline "the enclosing scope is grouped";
  if outer.join <> None then decline "the enclosing scope has a join annotation";
  if s.join <> None then decline "the inner scope has a join annotation";
  let h = n.head.head_name in
  List.iter
    (fun ib ->
      match ib.source with
      | Base r when finite r -> ()
      | Base r ->
          decline
            "inner source %s is not a finite stored relation or a \
             lower-stratum definition"
            r
      | Nested c ->
          decline "inner source %s is a nested collection" c.head.head_name)
    s.bindings;
  let inner = List.map (fun ib -> ib.var) s.bindings in
  let assigns, rest =
    List.fold_left
      (fun (assigns, rest) f ->
        match f with
        | Pred p -> (
            match Analysis.assignment_of ~heads:[ h ] p with
            | Some ((_, a), t) when List.mem a n.head.head_attrs ->
                if List.mem_assoc a assigns then
                  decline "head attribute %s.%s is assigned twice" h a;
                (assigns @ [ (a, t) ], rest)
            | _ -> (assigns, rest @ [ f ]))
        | _ -> (assigns, rest @ [ f ]))
      ([], [])
      (conjuncts (Canon.simplify_formula s.body))
  in
  List.iter
    (fun a ->
      match List.assoc_opt a assigns with
      | None -> decline "head attribute %s.%s is not assigned" h a
      | Some t when not (aggregate_only inner t) ->
          decline "head attribute %s.%s is not an aggregate of the inner scope"
            h a
      | Some _ -> ())
    n.head.head_attrs;
  let locals, keys =
    List.fold_left
      (fun (locals, keys) f ->
        let fv = free_vars f in
        let outer_refs = List.filter (fun v -> not (List.mem v inner)) fv in
        if List.mem h fv then decline "the inner scope reads its head %s" h
        else if formula_has_agg f then
          decline "aggregate comparison in the inner scope: %s"
            (Explain.formula_to_string f)
        else if outer_refs = [] then (locals @ [ f ], keys)
        else
          let key =
            match f with
            | Pred (Cmp (Eq, Attr (y, k), Attr (o, t)))
              when List.mem y inner && not (List.mem o inner) ->
                Some ((y, k), (o, t))
            | Pred (Cmp (Eq, Attr (o, t), Attr (y, k)))
              when List.mem y inner && not (List.mem o inner) ->
                Some ((y, k), (o, t))
            | _ -> None
          in
          match key with
          | None ->
              decline "correlation is not an equality: %s"
                (Explain.formula_to_string f)
          | Some (_, (o, _)) when not (List.mem o visible) ->
              decline "correlated with %s, which is not bound before %s" o
                b.var
          | Some k -> (locals, keys @ [ k ]))
      ([], []) rest
  in
  if keys = [] then decline "the inner scope has no equality correlation";
  let key_attrs =
    List.rev
      (List.fold_left
         (fun acc ((_, k), _) -> fresh (acc @ n.head.head_attrs) k :: acc)
         [] keys)
  in
  let head_eq a t = Pred (Cmp (Eq, Attr (h, a), t)) in
  let assignments = List.map (fun (a, t) -> head_eq a t) assigns in
  let grouped =
    {
      head = { n.head with head_attrs = key_attrs @ n.head.head_attrs };
      body =
        Exists
          {
            s with
            grouping = Some (List.map fst keys);
            body =
              And
                (locals
                @ List.map2
                    (fun ka ((y, k), _) -> head_eq ka (Attr (y, k)))
                    key_attrs keys
                @ assignments);
          };
    }
  in
  let pad =
    { n with body = Exists { s with body = And (Or [] :: assignments) } }
  in
  let with_source c =
    List.map
      (fun ob -> if ob == b then { b with source = Nested c } else ob)
      outer.bindings
  in
  let matched_on =
    List.map2
      (fun ka (_, (o, t)) ->
        Pred (Cmp (Eq, Attr (o, t), Attr (b.var, ka))))
      key_attrs keys
  in
  let empty_group =
    Not
      (Exists
         {
           bindings = s.bindings;
           grouping = None;
           join = None;
           body =
             And
               (locals
               @ List.map
                   (fun ((y, k), (o, t)) ->
                     Pred (Cmp (Eq, Attr (y, k), Attr (o, t))))
                   keys);
         })
  in
  let body = conjuncts outer.body in
  ( { outer with bindings = with_source grouped; body = And (matched_on @ body) },
    { outer with bindings = with_source pad; body = And (empty_group :: body) }
  )

(* Rewrites the sites of one top-level disjunct, left to right; a fired
   site splits the disjunct in two, and both halves go on with the
   bindings after it. *)
let rec rewrite_disjunct ~finite ~free (d : formula) : formula list * site list =
  match d with
  | Exists outer ->
      let rec scan before = function
        | [] -> ([ d ], [])
        | b :: rest -> (
            let next () = scan (b.var :: before) rest in
            match b.source with
            | Nested n when Analysis.free_vars_query (Coll n) <> [] -> (
                match gamma0_scope n with
                | None -> next ()
                | Some s -> (
                    let site outcome =
                      { binder = b.var; nested = n.head.head_name; outcome }
                    in
                    match
                      rewrite_site ~finite ~visible:(before @ free) outer b n s
                    with
                    | exception Decline why ->
                        let ds, sites = next () in
                        (ds, site (Declined why) :: sites)
                    | matched, pad ->
                        let dm, sm =
                          rewrite_disjunct ~finite ~free (Exists matched)
                        in
                        let dp, sp = rewrite_disjunct ~finite ~free (Exists pad) in
                        (dm @ dp, (site Fired :: sm) @ sp)))
            | _ -> next ())
      in
      scan [] outer.bindings
  | _ -> ([ d ], [])

(* Sites repeat in both halves of a split disjunct; report each once. *)
let dedup sites =
  List.rev
    (List.fold_left
       (fun acc s -> if List.mem s acc then acc else s :: acc)
       [] sites)

(** Rewrites the sites of [c]'s own top-level disjuncts (not those of its
    nested collections). [finite] says which relation names an inner scope
    may range over. Returns [c] itself when no site fires. *)
let collection ~finite (c : collection) : collection * site list =
  let free = Analysis.free_vars_query (Coll c) in
  let results =
    List.map
      (rewrite_disjunct ~finite ~free)
      (disjuncts (Canon.simplify_formula c.body))
  in
  let sites = dedup (List.concat_map snd results) in
  if List.exists fired sites then
    ({ c with body = Or (List.concat_map fst results) }, sites)
  else (c, sites)

(* [c] and, recursively, the nested collections [Lower] reaches from it:
   the sources of its top-level disjunct scopes' bindings. *)
let rec deep ~finite (c : collection) : collection * site list =
  let c, sites = collection ~finite c in
  let nested_sites = ref [] in
  let in_binding b =
    match b.source with
    | Base _ -> b
    | Nested n ->
        let n', ss = deep ~finite n in
        nested_sites := !nested_sites @ ss;
        if n' == n then b else { b with source = Nested n' }
  in
  let in_disjunct f =
    match f with
    | Exists s ->
        let bindings = List.map in_binding s.bindings in
        if List.for_all2 ( == ) bindings s.bindings then f
        else Exists { s with bindings }
    | f -> f
  in
  let ds = disjuncts (Canon.simplify_formula c.body) in
  let ds' = List.map in_disjunct ds in
  let c = if List.for_all2 ( == ) ds ds' then c else { c with body = Or ds' } in
  (c, sites @ !nested_sites)

(** Every collection of [p] rewritten as [Lower] rewrites it, with the
    sites found on the way, in program order. *)
let program_sites ~finite (p : program) : program * site list =
  let defs, def_sites =
    List.split
      (List.map
         (fun d ->
           let body, sites = deep ~finite d.def_body in
           ({ d with def_body = body }, sites))
         p.defs)
  in
  let main, main_sites =
    match p.main with
    | Coll c ->
        let c, sites = deep ~finite c in
        (Coll c, sites)
    | Sentence f -> (Sentence f, [])
  in
  ({ defs; main }, List.concat def_sites @ main_sites)

let program ~finite p = fst (program_sites ~finite p)
