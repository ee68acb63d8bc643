(** One differential-testing case: an ARC program plus the database it runs
    against. Conventions are not part of the case — the oracle sweeps all
    of them. *)

type t = {
  prog : Arc_core.Ast.program;
  db : Arc_relation.Database.t;
}

let schemas t =
  List.map
    (fun name ->
      ( name,
        Arc_relation.Schema.attrs
          (Arc_relation.Relation.schema (Arc_relation.Database.find t.db name))
      ))
    (Arc_relation.Database.names t.db)

let validate t =
  Arc_core.Analysis.validate
    ~env:(Arc_core.Analysis.env ~schemas:(schemas t) ())
    t.prog

(* AST-node + database-row count: the measure the shrinker must strictly
   decrease, guaranteeing termination. *)
let size t =
  let open Arc_core.Ast in
  let rec tsize = function
    | Const _ | Attr _ -> 1
    | Scalar (_, ts) -> 1 + List.fold_left (fun a t -> a + tsize t) 0 ts
    | Agg (_, t) -> 1 + tsize t
  in
  let node_size = function
    | F True -> 1
    | F (Pred p) ->
        1 + List.fold_left (fun a t -> a + tsize t) 0 (pred_terms p)
    | F (And _ | Or _ | Not _) -> 1
    | F (Exists s) ->
        1
        + List.length s.bindings
        + (match s.grouping with Some ks -> 1 + List.length ks | None -> 0)
        + (match s.join with Some _ -> 1 | None -> 0)
    | C c -> 1 + List.length c.head.head_attrs
  in
  let size n = fold (fun a n -> a + node_size n) 0 n in
  let prog_size =
    size (query_node t.prog.main)
    + List.fold_left (fun a d -> a + size (C d.def_body)) 0 t.prog.defs
  in
  let db_size =
    List.fold_left
      (fun a name ->
        a + 1
        + Arc_relation.Relation.cardinality (Arc_relation.Database.find t.db name))
      0
      (Arc_relation.Database.names t.db)
  in
  prog_size + db_size
