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

(* The correctly rounded sum of [xs], whatever their order: Shewchuk's
   exact partial sums with the final half-even correction of Python's
   [math.fsum]. Non-finite inputs, and intermediate overflow, fall back
   to the plain sum, whose value (an infinity or NaN) no order changes. *)
let fsum xs =
  let partials = ref [] in
  List.iter
    (fun x ->
      let x = ref x in
      let kept =
        List.fold_left
          (fun kept y ->
            let a, b = if Float.abs !x < Float.abs y then (y, !x) else (!x, y) in
            let hi = a +. b in
            let lo = b -. (hi -. a) in
            x := hi;
            if lo <> 0. then lo :: kept else kept)
          [] !partials
      in
      partials := List.rev (!x :: kept))
    xs;
  let plain () = List.fold_left ( +. ) 0. xs in
  if not (List.for_all Float.is_finite xs) then plain ()
  else
    (* partials are non-overlapping, in increasing magnitude *)
    match List.rev !partials with
    | [] -> 0.
    | top :: rest ->
        let rec go hi = function
          | [] -> hi
          | y :: rest ->
              let x = hi in
              let hi = x +. y in
              let lo = y -. (hi -. x) in
              if lo = 0. then go hi rest
              else
                (* round half-even across the remaining partials *)
                match rest with
                | next :: _ when (lo < 0. && next < 0.) || (lo > 0. && next > 0.)
                  ->
                    let y = lo *. 2. in
                    let x' = hi +. y in
                    if y = x' -. hi then x' else hi
                | _ -> hi
        in
        let r = go top rest in
        if Float.is_finite r then r else plain ()

(* The float values of a group's numbers. An int beyond 2^53 is split
   into two exactly representable halves, so [fsum] adds its exact
   value. *)
let float_parts vs =
  List.concat_map
    (function
      | Value.Int x ->
          let lo = x land 0xffffffff in
          [ Float.of_int (x - lo); Float.of_int lo ]
      | Value.Float f -> [ f ]
      | _ -> [])
    vs

let has_float = List.exists (function Value.Float _ -> true | _ -> false)
let all_numeric =
  List.for_all (function Value.Int _ | Value.Float _ -> true | _ -> false)

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
      | vs when has_float vs && all_numeric vs ->
          Value.Float (fsum (float_parts vs))
      | vs -> sum_values vs)
  | Sum_distinct -> apply empty_conv Sum (dedup (non_null values))
  | Avg -> (
      match non_null values with
      | [] -> empty_result empty_conv
      | vs ->
          let fs = List.filter_map Value.to_float vs in
          let sum =
            if has_float vs then fsum (float_parts vs)
            else List.fold_left ( +. ) 0. fs
          in
          Value.Float (sum /. float_of_int (List.length fs)))
  | Avg_distinct -> apply empty_conv Avg (dedup (non_null values))
  | Min -> (
      match non_null values with
      | [] -> empty_result empty_conv
      | v :: vs -> List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) v vs)
  | Max -> (
      match non_null values with
      | [] -> empty_result empty_conv
      | v :: vs -> List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) v vs)
