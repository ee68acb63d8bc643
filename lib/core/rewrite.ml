open Ast

(* ------------------------------------------------------------------ *)
(* Negation normalization                                              *)
(* ------------------------------------------------------------------ *)

let rec push n =
  let negated fs = List.map (fun h -> to_formula (push (F (Not h)))) fs in
  match n with
  | F (Not (Not h)) -> push (F h)
  | F (Not (Or fs)) -> F (And (negated fs))
  | F (Not (And fs)) -> F (Or (negated fs))
  | n -> map_children push n

let push_negation f = to_formula (push (F f))

(* ------------------------------------------------------------------ *)
(* Unnesting                                                           *)
(* ------------------------------------------------------------------ *)

let scope_vars s = List.map (fun b -> b.var) s.bindings

let rec merge n =
  match map_children merge n with
  | F (Exists outer) as n -> (
      let mergeable inner =
        outer.grouping = None && inner.grouping = None && outer.join = None
        && inner.join = None
        && List.for_all
             (fun v -> not (List.mem v (scope_vars outer)))
             (scope_vars inner)
      in
      let merged inner body =
        F
          (Exists
             {
               bindings = outer.bindings @ inner.bindings;
               grouping = None;
               join = None;
               body;
             })
      in
      match outer.body with
      | Exists inner when mergeable inner -> merged inner inner.body
      | And fs -> (
          (* a single plain inner scope among other conjuncts also merges:
             the other conjuncts cannot reference the inner bindings *)
          match
            List.partition (function Exists _ -> true | _ -> false) fs
          with
          | [ Exists inner ], rest when mergeable inner ->
              merged inner
                (Canon.simplify_formula (And (rest @ [ inner.body ])))
          | _ -> n)
      | _ -> n)
  | n -> n

let merge_nested_exists = map_query merge

(* ------------------------------------------------------------------ *)
(* Definition inlining                                                 *)
(* ------------------------------------------------------------------ *)

let inline_definitions (p : program) : program =
  (* classify inlinable definitions: non-recursive and safe *)
  let safeties = Analysis.program_safety p in
  let recursive = Depend.recursive_defs p.defs in
  let is_safe name =
    match List.assoc_opt name safeties with
    | Some Analysis.Safe -> true
    | _ -> false
  in
  let inlinable = Hashtbl.create 8 in
  List.iter
    (fun d ->
      if (not (List.mem d.def_name recursive)) && is_safe d.def_name then
        Hashtbl.replace inlinable d.def_name d.def_body)
    p.defs;
  (* a binding to an inlinable definition becomes its body, which is then
     rewritten in turn: definitions may reference earlier definitions *)
  let inline b =
    match b.source with
    | Base n -> (
        match Hashtbl.find_opt inlinable n with
        | Some c -> { b with source = Nested c }
        | None -> b)
    | Nested _ -> b
  in
  let rec rewrite n =
    map_children rewrite
      (match n with
      | F (Exists s) ->
          F (Exists { s with bindings = List.map inline s.bindings })
      | n -> n)
  in
  let main = map_query rewrite p.main in
  let defs =
    List.filter (fun d -> not (Hashtbl.mem inlinable d.def_name)) p.defs
  in
  { defs; main }

(* ------------------------------------------------------------------ *)
(* DISTINCT encoding                                                   *)
(* ------------------------------------------------------------------ *)

let dedup_wrap ~fresh (c : collection) : collection =
  let var = fresh "x" in
  let head = fresh c.head.head_name in
  let attrs = c.head.head_attrs in
  {
    head = { head_name = head; head_attrs = attrs };
    body =
      Exists
        {
          bindings = [ { var; source = Nested c } ];
          grouping = Some (List.map (fun a -> (var, a)) attrs);
          join = None;
          body =
            And
              (List.map
                 (fun a -> Pred (Cmp (Eq, Attr (head, a), Attr (var, a))))
                 attrs);
        };
  }
