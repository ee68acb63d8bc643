open Ast

type agg_style = FIO | FOI

type t = {
  rel_refs : (rel_name * int) list;
  n_scopes : int;
  n_grouping_scopes : int;
  n_nested_collections : int;
  n_negations : int;
  n_disjuncts : int;
  max_scope_depth : int;
  n_assignments : int;
  n_comparisons : int;
  n_aggregations : int;
  agg_styles : agg_style list;
  has_outer_join : bool;
  skeleton : string;
}

type acc = {
  mutable rels : (rel_name * int) list;
  mutable scopes : int;
  mutable grouping_scopes : int;
  mutable nested : int;
  mutable negations : int;
  mutable disjuncts : int;
  mutable depth : int;
  mutable assignments : int;
  mutable comparisons : int;
  mutable aggregations : int;
  mutable styles : agg_style list;
  mutable outer_join : bool;
}

let bump acc name =
  acc.rels <-
    (match List.assoc_opt name acc.rels with
    | Some n -> (name, n + 1) :: List.remove_assoc name acc.rels
    | None -> (name, 1) :: acc.rels)

let rec has_outer = function
  | J_var _ | J_lit _ -> false
  | J_inner l -> List.exists has_outer l
  | J_left _ | J_full _ -> true

(* Does the collection reference any variable from [outer] (variables
   bound in scopes enclosing it)? *)
let correlated_with outer c =
  List.exists (fun v -> List.mem v outer) (Analysis.free_vars_query (Coll c))

let of_query q =
  (* counted on the connective-simplified query, as the skeleton is *)
  let q = Canon.simplify_query q in
  let acc =
    {
      rels = [];
      scopes = 0;
      grouping_scopes = 0;
      nested = 0;
      negations = 0;
      disjuncts = 0;
      depth = 0;
      assignments = 0;
      comparisons = 0;
      aggregations = 0;
      styles = [];
      outer_join = false;
    }
  in
  let rec walk_formula ~heads ~outer ~depth f =
    match f with
    | True -> ()
    | Pred p ->
        let role = Analysis.classify ~heads p in
        if role.Analysis.is_aggregation then
          acc.aggregations <- acc.aggregations + 1
        else if role.Analysis.is_assignment then
          acc.assignments <- acc.assignments + 1
        else acc.comparisons <- acc.comparisons + 1
    | And fs -> List.iter (walk_formula ~heads ~outer ~depth) fs
    | Or fs ->
        acc.disjuncts <- acc.disjuncts + List.length fs;
        List.iter (walk_formula ~heads ~outer ~depth) fs
    | Not f ->
        acc.negations <- acc.negations + 1;
        walk_formula ~heads ~outer ~depth f
    | Exists s ->
        acc.scopes <- acc.scopes + 1;
        acc.depth <- max acc.depth (depth + 1);
        (match s.join with
        | Some j when has_outer j -> acc.outer_join <- true
        | _ -> ());
        (match s.grouping with
        | Some keys ->
            acc.grouping_scopes <- acc.grouping_scopes + 1;
            (* FOI: γ∅-or-keyed grouping inside a correlated nested
               collection is classified by the caller via [in_correlated];
               here we use the flag stored in [outer] marker below. *)
            ignore keys
        | None -> ());
        let inner_vars = List.map (fun b -> b.var) s.bindings in
        List.iter
          (fun b ->
            match b.source with
            | Base n -> bump acc n
            | Nested c ->
                acc.nested <- acc.nested + 1;
                let corr = correlated_with (outer @ inner_vars) c in
                walk_collection ~outer:(outer @ inner_vars) ~depth:(depth + 1)
                  ~corr c)
          s.bindings;
        (match s.grouping with
        | Some _ -> acc.styles <- acc.styles @ [ FIO ]
        | None -> ());
        walk_formula ~heads ~outer:(outer @ inner_vars) ~depth:(depth + 1)
          s.body
  and walk_collection ~outer ~depth ~corr c =
    (* grouping scopes directly inside a correlated nested collection are
       FOI; mark by rewriting the styles appended during the walk *)
    let before = List.length acc.styles in
    walk_formula ~heads:[ c.head.head_name ] ~outer ~depth c.body;
    if corr then
      acc.styles <-
        List.mapi
          (fun i st -> if i >= before then FOI else st)
          acc.styles
  in
  (match q with
  | Coll c -> walk_collection ~outer:[] ~depth:0 ~corr:false c
  | Sentence f -> walk_formula ~heads:[] ~outer:[] ~depth:0 f);
  {
    rel_refs = List.sort compare acc.rels;
    n_scopes = acc.scopes;
    n_grouping_scopes = acc.grouping_scopes;
    n_nested_collections = acc.nested;
    n_negations = acc.negations;
    n_disjuncts = acc.disjuncts;
    max_scope_depth = acc.depth;
    n_assignments = acc.assignments;
    n_comparisons = acc.comparisons;
    n_aggregations = acc.aggregations;
    agg_styles = acc.styles;
    has_outer_join = acc.outer_join;
    skeleton = Canon.skeleton q;
  }

let of_collection c = of_query (Coll c)

let equal a b = a = b

let agg_style_to_string = function FIO -> "FIO" | FOI -> "FOI"

let to_string t =
  Printf.sprintf
    "refs=[%s] scopes=%d grouping=%d nested=%d neg=%d disj=%d depth=%d \
     assign=%d cmp=%d agg=%d styles=[%s]%s"
    (String.concat "; "
       (List.map (fun (n, c) -> Printf.sprintf "%s\xc3\x97%d" n c) t.rel_refs))
    t.n_scopes t.n_grouping_scopes t.n_nested_collections t.n_negations
    t.n_disjuncts t.max_scope_depth t.n_assignments t.n_comparisons
    t.n_aggregations
    (String.concat "," (List.map agg_style_to_string t.agg_styles))
    (if t.has_outer_join then " outer-join" else "")
