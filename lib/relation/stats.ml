module V = Arc_value.Value

(* Per-relation column statistics, in the classic ANALYZE shape: row count,
   and per column the null count, distinct count, min/max, the most common
   values with their frequencies, and an equi-depth histogram over the
   non-null values. Value identity everywhere is [Value.compare] (so
   [Int 1] and [Float 1.0] count as one distinct value, exactly as they
   group and deduplicate). Collection reads every row of the relation —
   these are exact statistics, not samples; the planner treats them as
   approximate anyway because they describe the relation at ANALYZE time,
   not at execution time (see [stale]). *)

let mcv_target = 8
let histogram_buckets = 16

type bucket = {
  b_hi : V.t;  (** inclusive upper bound; a value never spans buckets *)
  b_rows : int;
  b_distinct : int;
}

type col = {
  c_nulls : int;
  c_distinct : int;  (** distinct non-null values *)
  c_min : V.t option;  (** smallest non-null value *)
  c_max : V.t option;
  c_mcvs : (V.t * int) list;
      (** most common values with occurrence counts, most frequent first;
          only values occurring more than once qualify *)
  c_hist : bucket list;  (** equi-depth, ascending by [b_hi] *)
}

type t = {
  s_rows : int;
  s_analyzed_rows : int;
      (** row count at collection time; the gap to [s_rows] measures how far
          the relation has drifted since the column details were gathered *)
  s_cols : (string * col) list;  (** in schema attribute order *)
  s_stale : bool;
      (** row count has been patched since collection (e.g. by incremental
          maintenance); column-level details may no longer be accurate *)
}

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)
(* ------------------------------------------------------------------ *)

(* Everything is computed from the column's runs: its distinct non-null
   values in ascending order, each with its row count. The representative
   of a run is its first occurrence in row order, for [c_min], [c_max],
   the MCVs and [b_hi] alike. [summarize] makes one pass over the runs;
   run [i] is [value i] with [count i] rows. *)
let summarize ~nulls ~nonnull ~runs ~value ~count =
  (* top MCVs, most frequent first, ties in ascending value order *)
  let top_i = Array.make mcv_target 0 and top_n = Array.make mcv_target 0 in
  let ntop = ref 0 in
  (* equi-depth buckets: close one once it holds at least [depth] rows;
     boundaries fall between runs, so a value never spans buckets *)
  let depth = max 1 ((nonnull + histogram_buckets - 1) / histogram_buckets) in
  let hist = ref [] and b_rows = ref 0 and b_distinct = ref 0 in
  for i = 0 to runs - 1 do
    let n = count i in
    if n > 1 && (!ntop < mcv_target || n > top_n.(mcv_target - 1)) then begin
      let j = ref (min !ntop (mcv_target - 1)) in
      while !j > 0 && top_n.(!j - 1) < n do
        top_i.(!j) <- top_i.(!j - 1);
        top_n.(!j) <- top_n.(!j - 1);
        decr j
      done;
      top_i.(!j) <- i;
      top_n.(!j) <- n;
      ntop := min mcv_target (!ntop + 1)
    end;
    b_rows := !b_rows + n;
    incr b_distinct;
    if !b_rows >= depth || i = runs - 1 then begin
      hist :=
        { b_hi = value i; b_rows = !b_rows; b_distinct = !b_distinct } :: !hist;
      b_rows := 0;
      b_distinct := 0
    end
  done;
  {
    c_nulls = nulls;
    c_distinct = runs;
    c_min = (if runs = 0 then None else Some (value 0));
    c_max = (if runs = 0 then None else Some (value (runs - 1)));
    c_mcvs = List.init !ntop (fun k -> (value top_i.(k), top_n.(k)));
    c_hist = List.rev !hist;
  }

(* LSD radix sort of [a.(0 .. n-1)], whose elements all lie in
   [lo, lo + range] with [range >= 0], on [radix_bits]-bit digits of
   [x - lo]. Each pass scatters between [a] and [tmp] through [counts]
   (of [1 lsl radix_bits] slots); the result is whichever of the two
   arrays holds the sorted elements. Small digits keep [counts] in cache
   and cheap to clear; a 63-bit range takes at most six passes. *)
let radix_bits = 11

let radix_sort a tmp counts n ~lo ~range =
  let mask = (1 lsl radix_bits) - 1 in
  let src = ref a and dst = ref tmp and shift = ref 0 in
  while !shift < Sys.int_size && range lsr !shift > 0 do
    let s = !src and d = !dst and sh = !shift in
    Array.fill counts 0 (mask + 1) 0;
    for i = 0 to n - 1 do
      let k = ((s.(i) - lo) lsr sh) land mask in
      counts.(k) <- counts.(k) + 1
    done;
    let pos = ref 0 in
    for k = 0 to mask do
      let c = counts.(k) in
      counts.(k) <- !pos;
      pos := !pos + c
    done;
    for i = 0 to n - 1 do
      let x = s.(i) in
      let k = ((x - lo) lsr sh) land mask in
      d.(counts.(k)) <- x;
      counts.(k) <- counts.(k) + 1
    done;
    src := d;
    dst := s;
    shift := sh + radix_bits
  done;
  !src

(* An all-[Int] column, its [n] non-null values unboxed in [ints]: sort
   them (by radix unless [hi - lo] overflows), then compact the sorted
   array in place into its distinct values, with their counts in the
   other buffer. *)
let int_column ~ints ~tmp ~counts ~nulls ~n ~lo ~hi =
  let sorted =
    if n = 0 then ints
    else if hi - lo >= 0 then radix_sort ints tmp counts n ~lo ~range:(hi - lo)
    else begin
      let a = Array.sub ints 0 n in
      Array.sort Int.compare a;
      Array.blit a 0 ints 0 n;
      ints
    end
  in
  let run_counts = if sorted == ints then tmp else ints in
  let runs = ref 0 in
  for i = 0 to n - 1 do
    let x = sorted.(i) in
    if !runs > 0 && sorted.(!runs - 1) = x then
      run_counts.(!runs - 1) <- run_counts.(!runs - 1) + 1
    else begin
      sorted.(!runs) <- x;
      run_counts.(!runs) <- 1;
      incr runs
    end
  done;
  summarize ~nulls ~nonnull:n ~runs:!runs
    ~value:(fun i -> V.Int sorted.(i))
    ~count:(fun i -> run_counts.(i))

(* Hashing that agrees with [V.compare]: [Int x] hashes as the float it
   compares as, so [Int 1] and [Float 1.0] meet in one class
   ([Hashtbl.hash] already maps -0.0 to 0.0 and every NaN to one hash). *)
module Value_tbl = Hashtbl.Make (struct
  type t = V.t

  let equal = V.equal

  let hash = function
    | V.Int x -> Hashtbl.hash (float_of_int x)
    | V.Float f -> Hashtbl.hash f
    | v -> Hashtbl.hash v
end)

(* Any other column: count each class of equal values, keeping its first
   occurrence as the representative, and sort only the distinct values.
   This is exact as long as [V.compare] is transitive on the column, which
   holds for mixed [Int]/[Float] columns within |x| <= 2^53; beyond that
   two [Int]s can each equal one [Float] without equalling each other. *)
let generic_column rows idx ~nulls ~nonnull =
  let classes = Value_tbl.create 64 in
  List.iter
    (fun tp ->
      match Tuple.cell tp idx with
      | V.Null -> ()
      | v -> (
          match Value_tbl.find_opt classes v with
          | Some c -> incr c
          | None -> Value_tbl.add classes v (ref 1)))
    rows;
  let runs = Array.of_seq (Value_tbl.to_seq classes) in
  Array.sort (fun (a, _) (b, _) -> V.compare a b) runs;
  summarize ~nulls ~nonnull ~runs:(Array.length runs)
    ~value:(fun i -> fst runs.(i))
    ~count:(fun i -> !(snd runs.(i)))

(* One scan of column [idx] counts its nulls and copies its values into
   [ints] for as long as they are all [Int]. *)
let collect_column ~ints ~tmp ~counts rows idx =
  let nulls = ref 0 and n = ref 0 and all_int = ref true in
  let lo = ref max_int and hi = ref min_int in
  List.iter
    (fun tp ->
      match Tuple.cell tp idx with
      | V.Null -> incr nulls
      | V.Int x when !all_int ->
          ints.(!n) <- x;
          if x < !lo then lo := x;
          if x > !hi then hi := x;
          incr n
      | _ ->
          all_int := false;
          incr n)
    rows;
  if !all_int then
    int_column ~ints ~tmp ~counts ~nulls:!nulls ~n:!n ~lo:!lo ~hi:!hi
  else generic_column rows idx ~nulls:!nulls ~nonnull:!n

(* Every row has the relation's schema ([Relation.make] checks), so each
   attribute is resolved to a cell index once. The sort buffers are shared
   by all columns of the relation. *)
let collect (r : Relation.t) : t =
  let rows = Relation.tuples r and card = Relation.cardinality r in
  let schema = Relation.schema r in
  let ints = Array.make card 0 and tmp = Array.make card 0 in
  let counts = Array.make (1 lsl radix_bits) 0 in
  {
    s_rows = card;
    s_analyzed_rows = card;
    s_cols =
      List.map
        (fun a ->
          (a, collect_column ~ints ~tmp ~counts rows (Schema.index schema a)))
        (Schema.attrs schema);
    s_stale = false;
  }

let col t attr = List.assoc_opt attr t.s_cols

(* Incremental maintenance keeps the row count truthful and flags the
   column details as unreliable; the cost model then uses [s_rows] but
   discounts column-level selectivities in proportion to the drift from
   [s_analyzed_rows]. *)
let patch_rows t rows = { t with s_rows = max 0 rows; s_stale = true }

(* Fraction in [0,1] measuring how much the row count has drifted since
   ANALYZE; 0 for fresh statistics, 1 once the relation has doubled or
   emptied relative to collection time. *)
let drift t =
  if not t.s_stale then 0.0
  else
    let base = max 1 t.s_analyzed_rows in
    min 1.0 (Float.abs (float_of_int (t.s_rows - t.s_analyzed_rows)) /. float_of_int base)

(* ------------------------------------------------------------------ *)
(* Selectivity fractions                                               *)
(* ------------------------------------------------------------------ *)

let nonnull_rows t c = max 0 (t.s_rows - c.c_nulls)

let null_fraction t c =
  if t.s_rows = 0 then 0.0
  else float_of_int c.c_nulls /. float_of_int t.s_rows

let in_range c v =
  match (c.c_min, c.c_max) with
  | Some lo, Some hi -> V.compare v lo >= 0 && V.compare v hi <= 0
  | _ -> false

(* P(column = v) over all rows. MCV hit: exact frequency. Otherwise the
   non-MCV rows are assumed uniform over the non-MCV distinct values; out
   of [min,max] range the fraction is zero. *)
let eq_fraction t c v =
  if t.s_rows = 0 then 0.0
  else if V.is_null v then null_fraction t c
  else
    match List.find_opt (fun (m, _) -> V.compare m v = 0) c.c_mcvs with
    | Some (_, n) -> float_of_int n /. float_of_int t.s_rows
    | None ->
        if c.c_distinct = 0 || not (in_range c v) then 0.0
        else
          let mcv_rows =
            List.fold_left (fun acc (_, n) -> acc + n) 0 c.c_mcvs
          in
          let rest_rows = nonnull_rows t c - mcv_rows in
          let rest_distinct = c.c_distinct - List.length c.c_mcvs in
          if rest_distinct <= 0 || rest_rows <= 0 then 0.0
          else
            float_of_int rest_rows
            /. float_of_int rest_distinct
            /. float_of_int t.s_rows

(* P(column = some unknown value): uniform over distinct values. *)
let eq_unknown_fraction t c =
  if t.s_rows = 0 || c.c_distinct = 0 then 0.0
  else
    float_of_int (nonnull_rows t c)
    /. float_of_int c.c_distinct
    /. float_of_int t.s_rows

(* P(column <= v) over all rows, via the histogram: full buckets below [v]
   count entirely, the bucket containing [v] counts half (the within-bucket
   distribution is unknown). [None] when there is no histogram. *)
let le_fraction t c v =
  match c.c_hist with
  | [] -> None
  | hist ->
      if t.s_rows = 0 then Some 0.0
      else begin
        let below = ref 0.0 in
        let rec go = function
          | [] -> ()
          | b :: rest ->
              if V.compare b.b_hi v <= 0 then begin
                below := !below +. float_of_int b.b_rows;
                go rest
              end
              else if
                (* [v] falls inside this bucket iff it is >= the previous
                   bucket's bound; buckets are ascending so it suffices to
                   check against the bucket's own contents via min *)
                match c.c_min with
                | Some lo -> V.compare v lo >= 0
                | None -> false
              then below := !below +. (float_of_int b.b_rows /. 2.0)
        in
        go hist;
        Some (min 1.0 (!below /. float_of_int t.s_rows))
      end

let cmp_fraction t c op v =
  let le = le_fraction t c v in
  let eq = eq_fraction t c v in
  match (op, le) with
  | `Le, Some f -> Some f
  | `Lt, Some f -> Some (max 0.0 (f -. eq))
  | `Ge, Some f -> Some (max 0.0 (1.0 -. null_fraction t c -. f +. eq))
  | `Gt, Some f -> Some (max 0.0 (1.0 -. null_fraction t c -. f))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let to_string ?(name = "") t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%s: %d rows%s\n" name t.s_rows
       (if t.s_stale then " (stale)" else ""));
  List.iter
    (fun (a, c) ->
      let range =
        match (c.c_min, c.c_max) with
        | Some lo, Some hi ->
            Printf.sprintf " range=[%s..%s]" (V.to_string lo) (V.to_string hi)
        | _ -> ""
      in
      let mcvs =
        if c.c_mcvs = [] then ""
        else
          " mcvs="
          ^ String.concat ","
              (List.map
                 (fun (v, n) -> Printf.sprintf "%s:%d" (V.to_string v) n)
                 c.c_mcvs)
      in
      Buffer.add_string b
        (Printf.sprintf "  %s: distinct=%d nulls=%d%s%s buckets=%d\n" a
           c.c_distinct c.c_nulls range mcvs (List.length c.c_hist)))
    t.s_cols;
  Buffer.contents b
