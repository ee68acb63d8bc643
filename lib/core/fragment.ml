open Ast

type features = {
  uses_aggregation : bool;
  uses_grouping : bool;
  uses_negation : bool;
  uses_disjunction : bool;
  uses_join_annotations : bool;
  uses_nested_collections : bool;
  uses_arithmetic : bool;
  uses_order_comparisons : bool;
  uses_null_predicates : bool;
  uses_like : bool;
}

let empty =
  {
    uses_aggregation = false;
    uses_grouping = false;
    uses_negation = false;
    uses_disjunction = false;
    uses_join_annotations = false;
    uses_nested_collections = false;
    uses_arithmetic = false;
    uses_order_comparisons = false;
    uses_null_predicates = false;
    uses_like = false;
  }

let merge a b =
  {
    uses_aggregation = a.uses_aggregation || b.uses_aggregation;
    uses_grouping = a.uses_grouping || b.uses_grouping;
    uses_negation = a.uses_negation || b.uses_negation;
    uses_disjunction = a.uses_disjunction || b.uses_disjunction;
    uses_join_annotations = a.uses_join_annotations || b.uses_join_annotations;
    uses_nested_collections =
      a.uses_nested_collections || b.uses_nested_collections;
    uses_arithmetic = a.uses_arithmetic || b.uses_arithmetic;
    uses_order_comparisons = a.uses_order_comparisons || b.uses_order_comparisons;
    uses_null_predicates = a.uses_null_predicates || b.uses_null_predicates;
    uses_like = a.uses_like || b.uses_like;
  }

let rec term_features = function
  | Const _ | Attr _ -> empty
  | Scalar (_, ts) ->
      List.fold_left merge { empty with uses_arithmetic = true }
        (List.map term_features ts)
  | Agg (_, t) -> merge { empty with uses_aggregation = true } (term_features t)

let pred_features = function
  | Cmp (op, l, r) ->
      let base =
        match op with
        | Lt | Leq | Gt | Geq -> { empty with uses_order_comparisons = true }
        | Eq | Neq -> empty
      in
      merge base (merge (term_features l) (term_features r))
  | Is_null t | Not_null t ->
      merge { empty with uses_null_predicates = true } (term_features t)
  | Like (t, _) -> merge { empty with uses_like = true } (term_features t)

let rec formula_features = function
  | True -> empty
  | Pred p -> pred_features p
  | And fs -> List.fold_left merge empty (List.map formula_features fs)
  | Or fs ->
      List.fold_left merge
        { empty with uses_disjunction = fs <> [] && List.length fs > 1 }
        (List.map formula_features fs)
  | Not f -> merge { empty with uses_negation = true } (formula_features f)
  | Exists s ->
      let base =
        {
          empty with
          uses_grouping = s.grouping <> None;
          uses_join_annotations = s.join <> None;
        }
      in
      let bindings =
        List.fold_left
          (fun acc b ->
            match b.source with
            | Base _ -> acc
            | Nested c ->
                merge acc
                  (merge
                     { empty with uses_nested_collections = true }
                     (formula_features c.body)))
          base s.bindings
      in
      merge bindings (formula_features s.body)

let features = function
  | Coll c -> formula_features c.body
  | Sentence f -> formula_features f

let features_program (p : program) =
  List.fold_left merge
    (features p.main)
    (List.map (fun d -> formula_features d.def_body.body) p.defs)

let is_trc q =
  let f = features q in
  (not f.uses_aggregation) && (not f.uses_grouping)
  && (not f.uses_join_annotations)
  && (not f.uses_nested_collections)
  && not f.uses_arithmetic

let is_conjunctive q =
  let f = features q in
  is_trc q && (not f.uses_negation) && (not f.uses_disjunction)
  && not f.uses_order_comparisons

let name q =
  if is_conjunctive q then "conjunctive"
  else if is_trc q then "TRC (relationally complete)"
  else
    let f = features q in
    let exts =
      List.filter_map
        (fun (used, n) -> if used then Some n else None)
        [
          (f.uses_aggregation, "aggregation");
          (f.uses_grouping && not f.uses_aggregation, "grouping");
          (f.uses_join_annotations, "join annotations");
          (f.uses_nested_collections, "nested collections");
          (f.uses_arithmetic, "arithmetic");
        ]
    in
    if exts = [] then "TRC (relationally complete)"
    else "ARC + " ^ String.concat " + " exts

let uses_recursion (p : program) =
  (* transitive self-reference through definition names *)
  let names = List.map (fun d -> d.def_name) p.defs in
  let deps_of d =
    let acc = ref [] in
    let rec walk_f = function
      | True | Pred _ -> ()
      | And fs | Or fs -> List.iter walk_f fs
      | Not f -> walk_f f
      | Exists s ->
          List.iter
            (fun b ->
              match b.source with
              | Base n -> if List.mem n names then acc := n :: !acc
              | Nested c -> walk_f c.body)
            s.bindings;
          walk_f s.body
    in
    walk_f d.def_body.body;
    !acc
  in
  let table = List.map (fun d -> (d.def_name, deps_of d)) p.defs in
  let reachable_from start =
    let seen = Hashtbl.create 8 in
    let rec go n =
      List.iter
        (fun m ->
          if not (Hashtbl.mem seen m) then (
            Hashtbl.add seen m ();
            go m))
        (try List.assoc n table with Not_found -> [])
    in
    go start;
    seen
  in
  List.exists (fun d -> Hashtbl.mem (reachable_from d.def_name) d.def_name) p.defs
