module Tuple = Arc_relation.Tuple

(* Each distinct tuple's net multiplicity, keyed by its first occurrence. *)
type t = int ref Tuple.Tbl.t

let create () : t = Tuple.Tbl.create 16

let add (d : t) tp n =
  if n <> 0 then
    match Tuple.Tbl.find_opt d tp with
    | Some c -> if !c + n = 0 then Tuple.Tbl.remove d tp else c := !c + n
    | None -> Tuple.Tbl.add d tp (ref n)

let of_list entries =
  let d = create () in
  List.iter (fun (tp, n) -> add d tp n) entries;
  d

let to_list (d : t) =
  Tuple.Tbl.fold (fun tp c acc -> (tp, !c) :: acc) d []
  |> List.sort (fun (a, _) (b, _) -> Tuple.compare a b)

let is_empty (d : t) = Tuple.Tbl.length d = 0

let cardinality (d : t) = Tuple.Tbl.fold (fun _ c acc -> acc + abs !c) d 0

let negate (d : t) =
  let d' = create () in
  Tuple.Tbl.iter (fun tp c -> Tuple.Tbl.add d' tp (ref (- !c))) d;
  d'

let count (d : t) tp =
  match Tuple.Tbl.find_opt d tp with Some c -> !c | None -> 0

let positive d =
  List.filter_map (fun (tp, n) -> if n > 0 then Some (tp, n) else None)
    (to_list d)

let negative d =
  List.filter_map (fun (tp, n) -> if n < 0 then Some (tp, -n) else None)
    (to_list d)

let expand entries =
  List.concat_map (fun (tp, n) -> List.init (max 0 n) (fun _ -> tp)) entries
