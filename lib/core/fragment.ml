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

(* a node's own features; [fold] adds its children's *)
let node_features = function
  | F (True | And _) -> empty
  | F (Pred p) -> pred_features p
  | F (Or fs) -> { empty with uses_disjunction = List.length fs > 1 }
  | F (Not _) -> { empty with uses_negation = true }
  | F (Exists s) ->
      {
        empty with
        uses_grouping = s.grouping <> None;
        uses_join_annotations = s.join <> None;
      }
  | C _ -> { empty with uses_nested_collections = true }

let formula_features f =
  fold (fun acc n -> merge acc (node_features n)) empty (F f)

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

let uses_recursion (p : program) = Depend.recursive_defs p.defs <> []
