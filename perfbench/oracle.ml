(* Independent oracles: expected results computed from the generated
   records with plain hash tables, sharing no code with the engine. SQL
   bag semantics throughout. Rows are compared as sorted lists of rendered
   cells, so a wrong value type (a float where SQL gives an integer) is a
   mismatch too. *)

open Gen
module V = Arc_value.Value
module Relation = Arc_relation.Relation
module Tuple = Arc_relation.Tuple

type cell = I of int | S of string

let row cells =
  String.concat "|"
    (List.map (function I n -> string_of_int n | S s -> "'" ^ s ^ "'") cells)

let render_value = function
  | V.Int n -> string_of_int n
  | V.Str s -> "'" ^ s ^ "'"
  | V.Float f -> Printf.sprintf "%.17gf" f
  | V.Bool b -> string_of_bool b
  | V.Null -> "NULL"

let rows_of_relation r =
  List.sort compare
    (List.map
       (fun t -> String.concat "|" (List.map render_value (Tuple.values t)))
       (Relation.tuples r))

let sum_by tbl k v =
  Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let cids_where (s : shop) p =
  let set = Hashtbl.create 1024 in
  Array.iter (fun o -> if p o then Hashtbl.replace set o.ocid ()) s.orders;
  set

let expected (s : shop) (q : query) : string list =
  let rows =
    match q with
    | Q1 { year } ->
        let active = cids_where s (fun o -> o.year = year) in
        Array.to_list s.customers
        |> List.filter (fun c -> not (Hashtbl.mem active c.cid))
        |> List.map (fun c -> row [ S c.name ])
    | Q2 { min_total } ->
        let spend = Hashtbl.create 1024 in
        Array.iter
          (fun o -> if o.total > min_total then sum_by spend o.ocid o.total)
          s.orders;
        Array.to_list s.customers
        |> List.filter_map (fun c ->
               Option.map
                 (fun v -> row [ S c.name; I v ])
                 (Hashtbl.find_opt spend c.cid))
    | Q3 { year; min_rev } ->
        let region = Hashtbl.create 1024 in
        Array.iter (fun c -> Hashtbl.replace region c.cid c.region) s.customers;
        let rev = Hashtbl.create 8 in
        Array.iter
          (fun o ->
            if o.year = year then
              sum_by rev (Hashtbl.find region o.ocid) o.total)
          s.orders;
        Hashtbl.fold
          (fun r v acc -> if v > min_rev then row [ S r; I v ] :: acc else acc)
          rev []
    | Q8 { region; min_total } ->
        let big = cids_where s (fun o -> o.total > min_total) in
        Array.to_list s.customers
        |> List.filter (fun c -> c.region = region && Hashtbl.mem big c.cid)
        |> List.map (fun c -> row [ S c.name ])
    | Q4 { min_total } ->
        let count = Hashtbl.create 1024 in
        Array.iter
          (fun o -> if o.total > min_total then sum_by count o.ocid 1)
          s.orders;
        Array.to_list s.customers
        |> List.map (fun c ->
               row
                 [
                   S c.name;
                   I (Option.value ~default:0 (Hashtbl.find_opt count c.cid));
                 ])
    | Q6 { year } ->
        let sum = Hashtbl.create 1024 and count = Hashtbl.create 1024 in
        Array.iter
          (fun o ->
            if o.year <> year then begin
              sum_by sum o.ocid o.total;
              sum_by count o.ocid 1
            end)
          s.orders;
        (* total > sum/count, kept in integers; no peer orders means an
           empty average, NULL, and an unknown comparison *)
        Array.to_list s.orders
        |> List.filter (fun o ->
               match Hashtbl.find_opt count o.ocid with
               | None -> false
               | Some n -> o.total * n > Hashtbl.find sum o.ocid)
        |> List.map (fun o -> row [ I o.oid ])
  in
  List.sort compare rows

let check_query s q r = rows_of_relation r = expected s q

(* eq16 over the chain 0 -> 1 -> ... -> n: exactly the pairs (i, j) with
   0 <= i < j <= n, each once. *)
let check_chain_closure ~n r =
  let seen = Hashtbl.create 4096 in
  Relation.cardinality r = n * (n + 1) / 2
  && List.for_all
       (fun t ->
         match Tuple.values t with
         | [ V.Int i; V.Int j ] when 0 <= i && i < j && j <= n ->
             (not (Hashtbl.mem seen (i, j)))
             && (Hashtbl.replace seen (i, j) ();
                 true)
         | _ -> false)
       (Relation.tuples r)
