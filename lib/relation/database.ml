module M = Map.Make (String)

(* Relations plus optional per-relation statistics. Statistics are strictly
   advisory (the cost model's input, never a source of truth): [add]
   invalidates the replaced relation's entry, so a stats entry always
   describes either the current relation ([Stats.collect] at analyze time)
   or a patched row count explicitly marked stale. *)
type t = { rels : Relation.t M.t; stats : Stats.t M.t }

exception Unknown_relation of string

let empty = { rels = M.empty; stats = M.empty }

let add t name r =
  { rels = M.add name r t.rels; stats = M.remove name t.stats }

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

let analyze ?only t =
  Option.iter
    (List.iter (fun n -> if not (M.mem n t.rels) then raise (Unknown_relation n)))
    only;
  let wanted n = match only with None -> true | Some l -> List.mem n l in
  {
    t with
    stats =
      M.fold
        (fun n r acc -> if wanted n then M.add n (Stats.collect r) acc else acc)
        t.rels t.stats;
  }

let stats t name = M.find_opt name t.stats
let stats_bindings t = M.bindings t.stats
let analyzed t = not (M.is_empty t.stats)

let set_stats t name s =
  if M.mem name t.rels then { t with stats = M.add name s t.stats } else t

let clear_stats t = { t with stats = M.empty }

let pp fmt t =
  M.iter
    (fun n r ->
      Format.fprintf fmt "%s =@.%s@." n (Relation.to_table r))
    t.rels
