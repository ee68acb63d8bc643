module M = Map.Make (String)

(* Relations plus optional per-relation statistics. Statistics are strictly
   advisory (the cost model's input, never a source of truth): [add]
   invalidates the replaced relation's entry, so a stats entry always
   describes either the current relation ([Stats.collect] at analyze time)
   or a patched row count explicitly marked stale.

   A relation value never changes (slots below its buffer's fill are never
   written again), so [Stats.collect r] is a pure function of [r]. [memo]
   keeps, per name, the last relation collected under that name with its
   statistics; [analyze] reuses an entry only while the current relation
   is that very value ([==]) and collects a changed one again. Every
   database derived from one [of_list] (or first [add]) shares the memo,
   which holds at most one entry per name. *)
type entry = { e_rel : Relation.t; e_stats : Stats.t }

type t = {
  rels : Relation.t M.t;
  stats : Stats.t M.t;
  memo : (string, entry) Hashtbl.t;
}

exception Unknown_relation of string

(* never written: analyzing a database without relations collects nothing *)
let empty = { rels = M.empty; stats = M.empty; memo = Hashtbl.create 0 }

(* a database's first relation starts its own memo, so that databases
   built apart never share one *)
let add t name r =
  {
    rels = M.add name r t.rels;
    stats = M.remove name t.stats;
    memo = (if M.is_empty t.rels then Hashtbl.create 8 else t.memo);
  }

let of_list l = List.fold_left (fun acc (n, r) -> add acc n r) empty l

let find t name =
  match M.find_opt name t.rels with
  | Some r -> r
  | None -> raise (Unknown_relation name)

let find_opt t name = M.find_opt name t.rels
let mem t name = M.mem name t.rels
let names t = List.map fst (M.bindings t.rels)

(* ------------------------------------------------------------------ *)
(* Statistics (ANALYZE)                                                *)
(* ------------------------------------------------------------------ *)

let collect t name r =
  match Hashtbl.find_opt t.memo name with
  | Some e when e.e_rel == r -> e.e_stats
  | _ ->
      let s = Stats.collect r in
      Hashtbl.replace t.memo name { e_rel = r; e_stats = s };
      s

let analyze ?only t =
  Option.iter
    (List.iter (fun n -> if not (M.mem n t.rels) then raise (Unknown_relation n)))
    only;
  let wanted n = match only with None -> true | Some l -> List.mem n l in
  {
    t with
    stats =
      M.fold
        (fun n r acc -> if wanted n then M.add n (collect t n r) acc else acc)
        t.rels t.stats;
  }

let stats t name = M.find_opt name t.stats
let stats_bindings t = M.bindings t.stats

let set_stats t name s =
  if M.mem name t.rels then { t with stats = M.add name s t.stats } else t

let pp fmt t =
  M.iter
    (fun n r ->
      Format.fprintf fmt "%s =@.%s@." n (Relation.to_table r))
    t.rels
