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

(* Estimates come from [Card] under the statistics environment [cenv]
   (none when absent), with the provenance of each number. *)
let est cenv (n : Ir.node) =
  let env = Option.value cenv ~default:[] in
  let e =
    match n with
    | Ir.T t -> Card.estimate env t
    | Ir.D d -> Card.estimate_disjunct env d
    | Ir.C c -> Card.estimate_coll env c
  in
  (Card.rows e, Card.src_name e.Card.src)

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

let label = function
  | Ir.T t -> t_label t
  | Ir.D d -> disjunct_label d
  | Ir.C c -> coll_label c

(* The one tree walk behind both renderings: [suffix] receives each node's
   stable id (see [Ir.program_ids]) and produces its label suffix. *)
let rec tree suffix id n : node =
  {
    label = label n ^ suffix id n;
    children = List.map2 (tree suffix) (Ir.node_child_ids id n) (Ir.children n);
  }

let explain_suffix cenv _ = function
  | Ir.T (Ir.Scan _ | Ir.Product _ | Ir.Hash_join _) as n ->
      let est, src = est cenv n in
      Printf.sprintf "  (\xe2\x89\x88%d rows, %s)" est src
  | _ -> ""

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

let coll_plan_to_string ?cenv p = render (tree (explain_suffix cenv) 0 (Ir.C p))

(* Renders a whole program; definitions are placed at their
   [Ir.program_ids] so annotations line up with executor-recorded
   stats. *)
let program_render suffix (pp : Ir.program_plan) : string =
  let buf = Buffer.create 512 in
  let def_ids, main_id = Ir.program_ids pp in
  let render_def dp =
    render (tree suffix (List.assoc dp.Ir.dname def_ids) (Ir.C dp.Ir.dplan))
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
      Buffer.add_string buf "main:\n";
      Buffer.add_string buf (render (tree suffix (Option.get main_id) (Ir.C p)))
  | Ir.Main_sentence f ->
      Buffer.add_string buf
        ("main (sentence): " ^ formula_to_string f ^ "\n"));
  Buffer.contents buf

let program_plan_to_string ?cenv (pp : Ir.program_plan) : string =
  program_render (explain_suffix cenv) pp

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

(* The relation a head returned renamed, in O(1), instead of running its
   disjunct ([Ir.identity_rename]). *)
let renamed (n : Ir.node) (a : Ir.actual) =
  match n with
  | Ir.C c when a.Ir.a_renamed -> Ir.identity_rename c
  | _ -> None

(* Operator-specific actuals: hash-table counts on joins, the fixpoint's
   rounds on a recursive head, the relation an identity rename shares. *)
let extras (n : Ir.node) (a : Ir.actual) =
  (match renamed n a with Some rel -> " rename=" ^ rel | None -> "")
  ^
  match n with
  | Ir.T (Ir.Hash_join _ | Ir.Semi _) ->
      Printf.sprintf " build=%d probe=%d matches=%d" a.Ir.a_build a.Ir.a_probe
        a.Ir.a_matches
  | Ir.C _ when a.Ir.a_iterations > 0 ->
      Printf.sprintf " iters=%d deltas=[%s] fix=%s" a.Ir.a_iterations
        (String.concat ";" (List.map string_of_int (List.rev a.Ir.a_deltas)))
        (ns_to_string a.Ir.a_fix_ns)
  | _ -> ""

let analyze_suffix ~warn_q_error ?cenv (stats : Ir.stats) id n =
  let est, src = est cenv n in
  match Ir.actual_of stats id with
  | None -> Printf.sprintf "  [est=%d src=%s act=\xe2\x80\x93]" est src
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
      Printf.sprintf "  [est=%d src=%s act=%d q=%.1f excl=%s%s%s]%s" est src
        a.Ir.a_rows q
        (ns_to_string (excl_ns stats id (Ir.node_child_ids id n)))
        inv (extras n a) warn

let analyze_to_string ?(warn_q_error = 4.0) ?cenv ~(stats : Ir.stats)
    (pp : Ir.program_plan) : string =
  program_render (analyze_suffix ~warn_q_error ?cenv stats) pp

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
  ni_src : string;  (* the provenance of ni_est *)
  ni_actual : Ir.actual option;
  ni_rename : string option;  (* the relation a head renamed *)
  ni_excl_ns : int64;
  ni_q : float option;
}

let analyze_info ?cenv (pp : Ir.program_plan) ~(stats : Ir.stats) :
    node_info list =
  (* one preorder fold per plan root, consing each node before its
     children *)
  let rec go section parent acc id n =
    let children = Ir.node_child_ids id n in
    let est, src = est cenv n in
    let actual = Ir.actual_of stats id in
    let info =
      {
        ni_id = id;
        ni_parent = parent;
        ni_def = section;
        ni_head = (match n with Ir.C c -> Some c.head.head_name | _ -> None);
        ni_op = Ir.op_name n;
        ni_label = label n;
        ni_est = est;
        ni_src = src;
        ni_actual = actual;
        ni_rename = Option.bind actual (renamed n);
        ni_excl_ns = excl_ns stats id children;
        ni_q = Option.map (fun a -> Ir.q_error est a.Ir.a_rows) actual;
      }
    in
    List.fold_left2 (go section (Some id)) (info :: acc) children
      (Ir.children n)
  in
  let def_ids, main_id = Ir.program_ids pp in
  let roots =
    List.map2
      (fun (name, id) dp -> (name, id, dp.Ir.dplan))
      def_ids (Ir.program_defs pp)
    @
    match pp.main with
    | Ir.Main_coll p -> [ ("main", Option.get main_id, p) ]
    | Ir.Main_sentence _ -> []
  in
  List.rev
    (List.fold_left
       (fun acc (section, id, p) -> go section None acc id (Ir.C p))
       [] roots)

let report_to_string (report : (string * bool) list) : string =
  "rewrites: "
  ^ String.concat ", "
      (List.map
         (fun (n, changed) -> n ^ if changed then " \xe2\x9c\x93" else " \xc2\xb7")
         report)
