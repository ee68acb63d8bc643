open Arc_core.Ast
module Pp = Arc_core.Pp

(* Compact one-line rendering of formulas for plan labels; full bodies are
   available through the normal pretty-printers, the plan only needs enough
   to identify the condition. *)
let rec formula_to_string = function
  | True -> "true"
  | Pred p -> Pp.pred p
  | And fs -> String.concat " \xe2\x88\xa7 " (List.map formula_to_string fs)
  | Or [] -> "false"
  | Or fs ->
      "(" ^ String.concat " \xe2\x88\xa8 " (List.map formula_to_string fs) ^ ")"
  | Not f -> "\xc2\xac(" ^ formula_to_string f ^ ")"
  | Exists s ->
      let vars =
        String.concat ", "
          (List.map
             (fun b ->
               b.var ^ " \xe2\x88\x88 "
               ^ (match b.source with
                 | Base n -> n
                 | Nested c -> c.head.head_name))
             s.bindings)
      in
      "\xe2\x88\x83" ^ vars ^ "[\xe2\x80\xa6]"

let key_to_string (k : Ir.key) = Pp.term k.outer ^ " = " ^ Pp.term k.inner
let keys_to_string ks = String.concat " \xe2\x88\xa7 " (List.map key_to_string ks)
let preds_to_string ps = String.concat " \xe2\x88\xa7 " (List.map Pp.pred ps)

let assigns_to_string assigns =
  String.concat ", "
    (List.map (fun (a, t) -> a ^ " := " ^ Pp.term t) assigns)

(* A node is rendered as a label plus a list of children; the tree is drawn
   with box characters. *)
type node = { label : string; children : node list }

(* Estimates come from [Card] when a statistics environment is supplied
   (so the annotation can say which estimator produced the number) and
   fall back to the legacy heuristic otherwise — by [Card]'s reconcile
   invariant the two agree when no statistics exist. *)
let est_of cenv estimator heur node =
  match cenv with
  | None -> (heur node, None)
  | Some env ->
      let e = estimator env node in
      (Card.rows e, Some (Card.src_name e.Card.src))

let est_t cenv t = est_of cenv Card.estimate Ir.estimate t
let est_d cenv d = est_of cenv Card.estimate_disjunct Ir.estimate_disjunct d
let est_c cenv c = est_of cenv Card.estimate_coll Ir.estimate_coll c

let est_suffix cenv t =
  let est, src = est_t cenv t in
  match src with
  | None -> Printf.sprintf "  (\xe2\x89\x88%d rows)" est
  | Some s -> Printf.sprintf "  (\xe2\x89\x88%d rows, %s)" est s

(* Core (suffix-free) labels, shared by the plain explain rendering and the
   analyze rendering. *)
let t_label (t : Ir.t) : string =
  match t with
  | One -> "unit"
  | Scan { var; rel; filters; _ } ->
      let f =
        if filters = [] then "" else " [" ^ preds_to_string filters ^ "]"
      in
      Printf.sprintf "scan %s as %s%s" rel var f
  | Subquery { var; _ } -> "subquery " ^ var ^ " :="
  | Lateral { var; _ } -> "lateral " ^ var ^ " := (per input row)"
  | Product _ -> "product"
  | Hash_join { keys; _ } -> "hash join on " ^ keys_to_string keys
  | Filter { preds; _ } -> "filter " ^ preds_to_string preds
  | Residual { conjs; _ } ->
      "residual filter "
      ^ String.concat " \xe2\x88\xa7 " (List.map formula_to_string conjs)
  | Semi { anti; keys; residual; _ } ->
      let kind = if anti then "hash anti join" else "hash semi join" in
      let on = if keys = [] then "" else " on " ^ keys_to_string keys in
      let res =
        if residual = [] then "" else " where " ^ preds_to_string residual
      in
      kind ^ on ^ res
  | Resolve { binding; _ } ->
      let name =
        match binding.source with Base n -> n | Nested _ -> "<nested>"
      in
      Printf.sprintf "resolve %s \xe2\x88\x88 %s (external/abstract)"
        binding.var name
  | Prune { keep; _ } -> "prune to {" ^ String.concat ", " keep ^ "}"
  | Append ts ->
      Printf.sprintf "append (%d branch%s)" (List.length ts)
        (if List.length ts = 1 then "" else "es")

let disjunct_label (d : Ir.disjunct_plan) : string =
  match d with
  | Project { assigns; _ } -> "project [" ^ assigns_to_string assigns ^ "]"
  | Aggregate { keys; post; assigns; _ } ->
      let post_s =
        if post = [] then ""
        else
          " having "
          ^ String.concat " \xe2\x88\xa7 " (List.map formula_to_string post)
      in
      "hash aggregate " ^ Pp.grouping keys ^ " [" ^ assigns_to_string assigns
      ^ "]" ^ post_s

let coll_label (p : Ir.coll_plan) : string =
  let n = List.length p.disjuncts in
  Printf.sprintf "%s \xe2\x86\x90 union (%d disjunct%s)" (Pp.head p.head) n
    (if n = 1 then "" else "s")

(* One annotated traversal serves both renderings: the annotation callback
   receives each node's stable id (see [Ir.program_ids]) and produces the
   label suffix. *)
type ann = {
  on_t : int -> Ir.t -> string;
  on_d : int -> Ir.disjunct_plan -> string;
  on_c : int -> Ir.coll_plan -> string;
}

let explain_ann cenv =
  {
    on_t =
      (fun _ t ->
        match t with
        | Ir.Scan _ | Ir.Product _ | Ir.Hash_join _ -> est_suffix cenv t
        | _ -> "");
    on_d = (fun _ _ -> "");
    on_c = (fun _ _ -> "");
  }

let rec node_of ann id (t : Ir.t) : node =
  let children =
    match t with
    | Ir.One | Ir.Scan _ -> []
    | Ir.Subquery { plan; _ } -> [ node_of_coll ann (id + 1) plan ]
    | Ir.Lateral { input; plan; _ } ->
        [
          node_of ann (id + 1) input;
          node_of_coll ann (id + 1 + Ir.size input) plan;
        ]
    | Ir.Product { left; right } | Ir.Hash_join { left; right; _ } ->
        [ node_of ann (id + 1) left; node_of ann (id + 1 + Ir.size left) right ]
    | Ir.Filter { input; _ }
    | Ir.Residual { input; _ }
    | Ir.Resolve { input; _ }
    | Ir.Prune { input; _ } ->
        [ node_of ann (id + 1) input ]
    | Ir.Semi { input; sub; _ } ->
        [ node_of ann (id + 1) input; node_of ann (id + 1 + Ir.size input) sub ]
    | Ir.Append ts -> List.map2 (node_of ann) (Ir.child_ids id t) ts
  in
  { label = t_label t ^ ann.on_t id t; children }

and node_of_disjunct ann id (d : Ir.disjunct_plan) : node =
  let children =
    match d with
    | Ir.Project { input; _ } | Ir.Aggregate { input; _ } ->
        [ node_of ann (id + 1) input ]
  in
  { label = disjunct_label d ^ ann.on_d id d; children }

and node_of_coll ann id (p : Ir.coll_plan) : node =
  let children =
    List.map2 (node_of_disjunct ann) (Ir.coll_child_ids id p) p.disjuncts
  in
  { label = coll_label p ^ ann.on_c id p; children }

let render (n : node) : string =
  let buf = Buffer.create 256 in
  let rec go prefix is_last n =
    Buffer.add_string buf prefix;
    if prefix <> "" || is_last <> `Root then
      Buffer.add_string buf (match is_last with `Last -> "\xe2\x94\x94\xe2\x94\x80 " | `Mid -> "\xe2\x94\x9c\xe2\x94\x80 " | `Root -> "");
    Buffer.add_string buf n.label;
    Buffer.add_char buf '\n';
    let child_prefix =
      match is_last with
      | `Root -> prefix
      | `Last -> prefix ^ "   "
      | `Mid -> prefix ^ "\xe2\x94\x82  "
    in
    let rec children = function
      | [] -> ()
      | [ c ] -> go child_prefix `Last c
      | c :: rest ->
          go child_prefix `Mid c;
          children rest
    in
    children n.children
  in
  go "" `Root n;
  Buffer.contents buf

let coll_plan_to_string ?cenv p = render (node_of_coll (explain_ann cenv) 0 p)

(* Renders a whole program, threading base ids with the same counter walk
   as [Ir.program_ids] so annotations line up with executor-recorded
   stats. *)
let program_render ann (pp : Ir.program_plan) : string =
  let buf = Buffer.create 512 in
  let counter = ref 0 in
  let render_def dp =
    let id = !counter in
    counter := !counter + Ir.size_coll dp.Ir.dplan;
    render (node_of_coll ann id dp.Ir.dplan)
  in
  List.iter
    (fun s ->
      match s with
      | Ir.Nonrecursive dp ->
          Buffer.add_string buf
            (Printf.sprintf "definition %s:\n%s" dp.dname (render_def dp))
      | Ir.Recursive dps ->
          Buffer.add_string buf
            (Printf.sprintf "recursive stratum {%s} (least fixpoint):\n"
               (String.concat ", " (List.map (fun d -> d.Ir.dname) dps)));
          List.iter
            (fun dp -> Buffer.add_string buf (render_def dp))
            dps)
    pp.strata;
  (match pp.main with
  | Ir.Main_coll p ->
      let id = !counter in
      counter := !counter + Ir.size_coll p;
      Buffer.add_string buf "main:\n";
      Buffer.add_string buf (render (node_of_coll ann id p))
  | Ir.Main_sentence f ->
      Buffer.add_string buf
        ("main (sentence): " ^ formula_to_string f ^ "\n"));
  Buffer.contents buf

let program_plan_to_string ?cenv (pp : Ir.program_plan) : string =
  program_render (explain_ann cenv) pp

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE                                                     *)
(* ------------------------------------------------------------------ *)

(* Local duration formatter; [lib/plan] sits below [lib/obs] in the
   dependency order, so it cannot reuse the one there. *)
let ns_to_string ns =
  let f = Int64.to_float ns in
  if f >= 1e9 then Printf.sprintf "%.2fs" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.2fms" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.2f\xc2\xb5s" (f /. 1e3)
  else Printf.sprintf "%.0fns" f

(* Exclusive time = this node's inclusive time minus its direct
   children's; children only ever run inside their parent's timed
   region, so the difference is the parent's own work (clamped at 0
   against clock jitter). *)
let excl_ns (stats : Ir.stats) id children =
  let kids =
    List.fold_left
      (fun acc c -> Int64.add acc (Ir.incl_of stats c))
      0L children
  in
  let e = Int64.sub (Ir.incl_of stats id) kids in
  if Int64.compare e 0L < 0 then 0L else e

let node_suffix ~warn_q_error (stats : Ir.stats) id ~est ~src ~children
    ~extras_of =
  let src_s = match src with None -> "" | Some s -> " src=" ^ s in
  match Ir.actual_of stats id with
  | None -> Printf.sprintf "  [est=%d%s act=\xe2\x80\x93]" est src_s
  | Some a ->
      let q = Ir.q_error est a.Ir.a_rows in
      let inv =
        if a.Ir.a_invocations > 1 then
          Printf.sprintf " inv=%d" a.Ir.a_invocations
        else ""
      in
      let warn =
        if q >= warn_q_error then "  \xe2\x9a\xa0 misestimate" else ""
      in
      Printf.sprintf "  [est=%d%s act=%d q=%.1f excl=%s%s%s]%s" est src_s
        a.Ir.a_rows q
        (ns_to_string (excl_ns stats id children))
        inv (extras_of a) warn

let analyze_ann ~warn_q_error ?cenv (stats : Ir.stats) =
  {
    on_t =
      (fun id t ->
        let est, src = est_t cenv t in
        node_suffix ~warn_q_error stats id ~est ~src
          ~children:(Ir.child_ids id t) ~extras_of:(fun a ->
            match t with
            | Ir.Hash_join _ | Ir.Semi _ ->
                Printf.sprintf " build=%d probe=%d matches=%d" a.Ir.a_build
                  a.Ir.a_probe a.Ir.a_matches
            | _ -> ""));
    on_d =
      (fun id d ->
        let est, src = est_d cenv d in
        node_suffix ~warn_q_error stats id ~est ~src
          ~children:(Ir.disjunct_child_ids id d)
          ~extras_of:(fun _ -> ""));
    on_c =
      (fun id c ->
        let est, src = est_c cenv c in
        node_suffix ~warn_q_error stats id ~est ~src
          ~children:(Ir.coll_child_ids id c) ~extras_of:(fun a ->
            if a.Ir.a_iterations > 0 then
              Printf.sprintf " iters=%d deltas=[%s] fix=%s" a.Ir.a_iterations
                (String.concat ";"
                   (List.map string_of_int (List.rev a.Ir.a_deltas)))
                (ns_to_string a.Ir.a_fix_ns)
            else ""));
  }

let analyze_to_string ?(warn_q_error = 4.0) ?cenv ~(stats : Ir.stats)
    (pp : Ir.program_plan) : string =
  program_render (analyze_ann ~warn_q_error ?cenv stats) pp

(* Flat per-node record for machine consumers (the CLI's JSON output and
   the bench harness). Preorder over the whole program. *)
type node_info = {
  ni_id : int;
  ni_parent : int option;  (* enclosing plan node; [None] at a plan root *)
  ni_def : string;  (* definition name, or "main" *)
  ni_head : string option;  (* head name of a collection node *)
  ni_op : string;
  ni_label : string;
  ni_est : int;
  ni_src : string;  (* which estimator produced ni_est *)
  ni_actual : Ir.actual option;
  ni_excl_ns : int64;
  ni_q : float option;
}

let analyze_info ?cenv (pp : Ir.program_plan) ~(stats : Ir.stats) :
    node_info list =
  let acc = ref [] in
  (* preorder adds a parent before its children, so each node registers
     itself as its children's parent *)
  let parents = Hashtbl.create 64 in
  let add ?head section id op label (est, src) children =
    let actual = Ir.actual_of stats id in
    let q = Option.map (fun a -> Ir.q_error est a.Ir.a_rows) actual in
    List.iter (fun c -> Hashtbl.replace parents c id) children;
    acc :=
      {
        ni_id = id;
        ni_parent = Hashtbl.find_opt parents id;
        ni_def = section;
        ni_head = head;
        ni_op = op;
        ni_label = label;
        ni_est = est;
        ni_src = Option.value ~default:"heuristic" src;
        ni_actual = actual;
        ni_excl_ns = excl_ns stats id children;
        ni_q = q;
      }
      :: !acc
  in
  let rec go_t section id t =
    add section id (Ir.op_name t) (t_label t) (est_t cenv t)
      (Ir.child_ids id t);
    match t with
    | Ir.One | Ir.Scan _ -> ()
    | Ir.Subquery { plan; _ } -> go_c section (id + 1) plan
    | Ir.Lateral { input; plan; _ } ->
        go_t section (id + 1) input;
        go_c section (id + 1 + Ir.size input) plan
    | Ir.Product { left; right } | Ir.Hash_join { left; right; _ } ->
        go_t section (id + 1) left;
        go_t section (id + 1 + Ir.size left) right
    | Ir.Filter { input; _ }
    | Ir.Residual { input; _ }
    | Ir.Resolve { input; _ }
    | Ir.Prune { input; _ } ->
        go_t section (id + 1) input
    | Ir.Semi { input; sub; _ } ->
        go_t section (id + 1) input;
        go_t section (id + 1 + Ir.size input) sub
    | Ir.Append ts -> List.iter2 (go_t section) (Ir.child_ids id t) ts
  and go_d section id d =
    add section id (Ir.disjunct_op_name d) (disjunct_label d) (est_d cenv d)
      (Ir.disjunct_child_ids id d);
    match d with
    | Ir.Project { input; _ } | Ir.Aggregate { input; _ } ->
        go_t section (id + 1) input
  and go_c section id (c : Ir.coll_plan) =
    let dids = Ir.coll_child_ids id c in
    add ~head:c.head.head_name section id "union" (coll_label c) (est_c cenv c)
      dids;
    List.iter2 (go_d section) dids c.disjuncts
  in
  let counter = ref 0 in
  let walk_def dp =
    let id = !counter in
    counter := !counter + Ir.size_coll dp.Ir.dplan;
    go_c dp.Ir.dname id dp.Ir.dplan
  in
  List.iter
    (function
      | Ir.Nonrecursive dp -> walk_def dp
      | Ir.Recursive dps -> List.iter walk_def dps)
    pp.strata;
  (match pp.main with
  | Ir.Main_coll p ->
      let id = !counter in
      counter := !counter + Ir.size_coll p;
      go_c "main" id p
  | Ir.Main_sentence _ -> ());
  List.rev !acc

let report_to_string (report : (string * bool) list) : string =
  "rewrites: "
  ^ String.concat ", "
      (List.map
         (fun (n, changed) -> n ^ if changed then " \xe2\x9c\x93" else " \xc2\xb7")
         report)
