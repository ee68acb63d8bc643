open Ast

(* Relation dependencies of a formula: every [Base] binding reachable from
   it, flagged [true] when the reference sits under a negation or an
   aggregating grouping scope (the nonmonotone positions that stratification
   must order strictly). Pure deduplication — grouping without aggregation
   predicates (Section 2.7) — is monotone and safe inside recursion. *)
let rec formula_deps ~neg ~grouped acc = function
  | True | Pred _ -> acc
  | And fs | Or fs -> List.fold_left (formula_deps ~neg ~grouped) acc fs
  | Not f -> formula_deps ~neg:true ~grouped acc f
  | Exists s ->
      let grouped' =
        grouped || (s.grouping <> None && formula_has_agg s.body)
      in
      let acc =
        List.fold_left
          (fun acc b ->
            match b.source with
            | Base n -> (n, neg || grouped') :: acc
            | Nested c -> formula_deps ~neg ~grouped:grouped' acc c.body)
          acc s.bindings
      in
      formula_deps ~neg ~grouped:grouped' acc s.body

let collection_deps (c : collection) =
  formula_deps ~neg:false ~grouped:false [] c.body

let def_deps (d : definition) = collection_deps d.def_body
let refs f = List.map fst (formula_deps ~neg:false ~grouped:false [] f)

(* Tarjan's SCC algorithm; emits components dependencies-first. *)
let sccs (defs : definition list) =
  let names = List.map (fun d -> d.def_name) defs in
  let adj =
    List.map
      (fun d ->
        (d.def_name, List.filter (fun (n, _) -> List.mem n names) (def_deps d)))
      defs
  in
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let result = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    List.iter
      (fun (w, _) ->
        if not (Hashtbl.mem index w) then (
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w)))
        else if Hashtbl.find_opt on_stack w = Some true then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (try List.assoc v adj with Not_found -> []);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            Hashtbl.replace on_stack w false;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      result := pop [] :: !result
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) names;
  (List.rev !result, adj)

let is_recursive adj component =
  match component with
  | [ n ] -> (
      match List.assoc_opt n adj with
      | Some deps -> List.exists (fun (m, _) -> m = n) deps
      | None -> false)
  | _ -> true

let recursive_defs defs =
  let components, adj = sccs defs in
  List.concat (List.filter (is_recursive adj) components)
