type kind =
  | Sum
  | Count
  | Avg
  | Min
  | Max
  | Count_distinct
  | Sum_distinct
  | Avg_distinct

let all_kinds =
  [ Sum; Count; Avg; Min; Max; Count_distinct; Sum_distinct; Avg_distinct ]

let kind_to_string = function
  | Sum -> "sum"
  | Count -> "count"
  | Avg -> "avg"
  | Min -> "min"
  | Max -> "max"
  | Count_distinct -> "countdistinct"
  | Sum_distinct -> "sumdistinct"
  | Avg_distinct -> "avgdistinct"

let kind_of_string s =
  match String.lowercase_ascii s with
  | "sum" -> Some Sum
  | "count" -> Some Count
  | "avg" | "average" -> Some Avg
  | "min" -> Some Min
  | "max" -> Some Max
  | "countdistinct" | "count_distinct" -> Some Count_distinct
  | "sumdistinct" | "sum_distinct" -> Some Sum_distinct
  | "avgdistinct" | "avg_distinct" -> Some Avg_distinct
  | _ -> None

let dedup values =
  let seen = Value.Tbl.create 16 in
  List.filter
    (fun v ->
      (not (Value.Tbl.mem seen v)) && (Value.Tbl.add seen v (); true))
    values

let non_null values = List.filter (fun v -> not (Value.is_null v)) values

let sum_values vs = List.fold_left Value.add (Value.Int 0) vs

let empty_result (empty_conv : Conventions.agg_empty) =
  match empty_conv with
  | Conventions.Agg_null -> Value.Null
  | Conventions.Agg_zero -> Value.Int 0

let rec apply empty_conv kind values =
  match kind with
  | Count -> Value.Int (List.length (non_null values))
  | Count_distinct -> Value.Int (List.length (dedup (non_null values)))
  | Sum -> (
      match non_null values with
      | [] -> empty_result empty_conv
      | vs -> sum_values vs)
  | Sum_distinct -> apply empty_conv Sum (dedup (non_null values))
  | Avg -> (
      match non_null values with
      | [] -> empty_result empty_conv
      | vs ->
          let fs = List.filter_map Value.to_float vs in
          Value.Float (List.fold_left ( +. ) 0. fs /. float_of_int (List.length fs)))
  | Avg_distinct -> apply empty_conv Avg (dedup (non_null values))
  | Min -> (
      match non_null values with
      | [] -> empty_result empty_conv
      | v :: vs -> List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) v vs)
  | Max -> (
      match non_null values with
      | [] -> empty_result empty_conv
      | v :: vs -> List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) v vs)
