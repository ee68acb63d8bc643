module Value = Arc_value.Value

(* The rows of [t] are [t.buf.data.(t.off .. t.off + t.len - 1)].
   Appending to a relation that ends at its buffer's [fill] (the newest
   version built on that buffer) writes the new rows in place behind it;
   any older version copies first. Slots below [fill] are never written
   again, so every version once handed out keeps seeing the same rows. *)
type buf = { mutable data : Tuple.t array; mutable fill : int }

type t = {
  name : string option;
  schema : Schema.t;
  buf : buf;
  off : int;
  len : int;
}

let of_array ?name schema data =
  let len = Array.length data in
  { name; schema; buf = { data; fill = len }; off = 0; len }

(* [Schema.equal] is O(1) on the physically equal schema that a plan's
   rows share with the relation collecting them. *)
let check_row fn schema tp =
  if not (Schema.equal (Tuple.schema tp) schema) then
    invalid_arg (fn ^ ": tuple schema mismatch")

let make ?name schema rows =
  List.iter (check_row "Relation.make" schema) rows;
  of_array ?name schema (Array.of_list rows)

let of_rows ?name attrs rows =
  let schema = Schema.make attrs in
  let mk vs =
    if List.length vs <> Schema.arity schema then
      invalid_arg "Relation.of_rows: row arity mismatch";
    Tuple.make schema (Array.of_list vs)
  in
  of_array ?name schema (Array.of_list (List.map mk rows))

let empty ?name attrs = of_rows ?name attrs []

let name t = t.name
let schema t = t.schema
let cardinality t = t.len
let is_empty t = t.len = 0
let rename name t = { t with name = Some name }

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Relation.get: index out of bounds";
  t.buf.data.(t.off + i)

let iter f t =
  let data = t.buf.data in
  for i = t.off to t.off + t.len - 1 do
    f data.(i)
  done

let take n t = if n >= t.len then t else { t with len = max 0 n }

let drop n t =
  let n = min t.len (max 0 n) in
  { t with off = t.off + n; len = t.len - n }

let tuples t =
  let data = t.buf.data in
  let rec go i acc =
    if i < t.off then acc else go (i - 1) (data.(i) :: acc)
  in
  go (t.off + t.len - 1) []

let map_rows f t = Array.init t.len (fun i -> f t.buf.data.(t.off + i))

(* A buffer holding [t]'s rows with room for [n] more behind them, and
   the offset of [t]'s first row in it: [t]'s own buffer when [t] is its
   newest version (its array doubled when full), a fresh copy of [t]'s
   rows otherwise. [x] fills the unused slots of a new array. *)
let room t n x =
  let b = t.buf and stop = t.off + t.len in
  if stop = b.fill then begin
    if stop + n > Array.length b.data then begin
      let data = Array.make (max (stop + n) (2 * stop)) x in
      Array.blit b.data 0 data 0 stop;
      b.data <- data
    end;
    (b, t.off)
  end
  else
    let data = Array.make (t.len + n) x in
    Array.blit b.data t.off data 0 t.len;
    ({ data; fill = t.len }, 0)

(* [t] with [n] more rows, [src.(at .. at + n - 1)]. *)
let append t src at n =
  if n = 0 then t
  else
    let b, off = room t n src.(at) in
    Array.blit src at b.data (off + t.len) n;
    b.fill <- off + t.len + n;
    { t with buf = b; off; len = t.len + n }

(* The rows [keep] accepts, in order, calling it once per row; [t] itself
   when it accepts all. *)
let select keep t =
  let data = t.buf.data and stop = t.off + t.len in
  let rec first i =
    if i = stop || not (keep data.(i)) then i else first (i + 1)
  in
  let i0 = first t.off in
  if i0 = stop then t
  else begin
    let out = Array.sub data t.off t.len and k = ref (i0 - t.off) in
    for i = i0 + 1 to stop - 1 do
      if keep data.(i) then (
        out.(!k) <- data.(i);
        incr k)
    done;
    { t with buf = { data = out; fill = !k }; off = 0; len = !k }
  end

(* A set of rows as an open-addressing table of their positions in a row
   array ([-1] marks a free slot), probed with [Tuple.hash] and
   [Tuple.equal]: the equality of [Tuple.Tbl], so Null matches Null and
   Int 1 matches Float 1.0. The table is at most half full; it doubles,
   rehashing the rows, when it would pass that. *)
type index = { mutable slots : int array; mutable count : int }

let index_create n =
  let rec cap c = if c >= 2 * n then c else cap (2 * c) in
  { slots = Array.make (cap 16) (-1); count = 0 }

(* The first free slot from slot [k] on: linear probing. *)
let rec free_slot slots mask k =
  if slots.(k) < 0 then k else free_slot slots mask ((k + 1) land mask)

let grow ix data =
  let slots = Array.make (2 * Array.length ix.slots) (-1) in
  let mask = Array.length slots - 1 in
  Array.iter
    (fun pos ->
      if pos >= 0 then
        slots.(free_slot slots mask (Tuple.hash data.(pos) land mask)) <- pos)
    ix.slots;
  ix.slots <- slots

(* Adds [tp], found at position [pos] of [data], unless a row equal to it
   is indexed already; [true] iff it was added. Indexed positions read
   [data], which must hold the rows they were indexed with. *)
let index_add ix data tp pos =
  if 2 * (ix.count + 1) > Array.length ix.slots then grow ix data;
  let slots = ix.slots in
  let mask = Array.length slots - 1 in
  let rec probe k =
    let p = slots.(k) in
    if p < 0 then begin
      slots.(k) <- pos;
      ix.count <- ix.count + 1;
      true
    end
    else if Tuple.equal data.(p) tp then false
    else probe ((k + 1) land mask)
  in
  probe (Tuple.hash tp land mask)

let dedup t =
  let ix = index_create t.len and data = t.buf.data and pos = ref t.off in
  select
    (fun tp ->
      let p = !pos in
      incr pos;
      index_add ix data tp p)
    t

(* The accumulator's rows are [0 .. len - 1] of [dbuf], indexed by [ix];
   [contents] hands them out as a relation over that buffer, so the
   accumulator appends behind every version it has handed out. *)
type distinct = {
  dname : string option;
  dschema : Schema.t;
  mutable dbuf : buf;
  mutable dlen : int;
  ix : index;
}

let distinct ?name schema =
  {
    dname = name;
    dschema = schema;
    dbuf = { data = [||]; fill = 0 };
    dlen = 0;
    ix = index_create 0;
  }

let contents d =
  { name = d.dname; schema = d.dschema; buf = d.dbuf; off = 0; len = d.dlen }

let insert d tp =
  check_row "Relation.insert" d.dschema tp;
  if index_add d.ix d.dbuf.data tp d.dlen then begin
    let b = d.dbuf in
    if d.dlen <> b.fill || d.dlen = Array.length b.data then
      d.dbuf <- fst (room (contents d) 1 tp);
    d.dbuf.data.(d.dlen) <- tp;
    d.dlen <- d.dlen + 1;
    d.dbuf.fill <- d.dlen
  end

let add t tp =
  check_row "Relation.add" t.schema tp;
  append t [| tp |] 0 1

let align_to schema tp =
  if Schema.equal (Tuple.schema tp) schema then tp
  else Tuple.project tp (Schema.attrs schema)

let union t1 t2 =
  if not (Schema.equal_names t1.schema t2.schema) then
    invalid_arg "Relation.union: schema mismatch";
  let r =
    if Schema.equal t1.schema t2.schema then
      append t1 t2.buf.data t2.off t2.len
    else append t1 (map_rows (align_to t1.schema) t2) 0 t2.len
  in
  { r with name = None }

(* Multiplicity counters, keyed by each tuple's first occurrence. *)
let counts t =
  let h = Tuple.Tbl.create 64 in
  iter
    (fun tp ->
      match Tuple.Tbl.find_opt h tp with
      | Some c -> incr c
      | None -> Tuple.Tbl.add h tp (ref 1))
    t;
  h

(* Matches [t1]'s rows one for one against [t2]'s multiplicities and
   keeps the matched rows ([keep_taken], intersect) or the unmatched ones
   (minus). *)
let against ~keep_taken t1 t2 =
  let left = counts t2 in
  let r =
    select
      (fun tp ->
        match Tuple.Tbl.find_opt left tp with
        | Some c when !c > 0 ->
            decr c;
            keep_taken
        | _ -> not keep_taken)
      t1
  in
  { r with name = None }

let minus t1 t2 =
  if not (Schema.equal_names t1.schema t2.schema) then
    invalid_arg "Relation.minus: schema mismatch";
  against ~keep_taken:false t1 t2

let intersect t1 t2 =
  if not (Schema.equal_names t1.schema t2.schema) then
    invalid_arg "Relation.intersect: schema mismatch";
  against ~keep_taken:true t1 t2

(* Signed deltas: multiplicities keyed by [Tuple.Tbl] — the same tuple
   equality [dedup]/[insert]/[minus]/[intersect] use, so Null matches
   Null and Int 1 matches Float 1.0 under either null-logic convention. *)

let apply_delta t (delta : (Tuple.t * int) list) =
  List.iter
    (fun (tp, _) ->
      if not (Schema.equal_names (Tuple.schema tp) t.schema) then
        invalid_arg "Relation.apply_delta: tuple schema mismatch")
    delta;
  let to_remove = Tuple.Tbl.create 16 in
  let inserts =
    List.concat_map
      (fun (tp, n) ->
        let tp = align_to t.schema tp in
        if n > 0 then List.init n (fun _ -> tp)
        else begin
          if n < 0 then begin
            match Tuple.Tbl.find_opt to_remove tp with
            | Some c -> c := !c - n
            | None -> Tuple.Tbl.add to_remove tp (ref (-n))
          end;
          []
        end)
      delta
  in
  let kept =
    if Tuple.Tbl.length to_remove = 0 then t
    else
      select
        (fun tp ->
          match Tuple.Tbl.find_opt to_remove tp with
          | Some c when !c > 0 ->
              decr c;
              false
          | _ -> true)
        t
  in
  Tuple.Tbl.iter
    (fun _ c ->
      if !c > 0 then
        invalid_arg "Relation.apply_delta: delete exceeds multiplicity")
    to_remove;
  let inserts = Array.of_list inserts in
  append kept inserts 0 (Array.length inserts)

let diff_signed t_old t_new =
  if not (Schema.equal_names t_old.schema t_new.schema) then
    invalid_arg "Relation.diff_signed: schema mismatch";
  (* at most |old| + |new| distinct rows, and a table grows only past two
     entries per bucket: this many buckets never rehash *)
  let net =
    Tuple.Tbl.create (max (cardinality t_old) (cardinality t_new))
  in
  let tally sign rel =
    iter
      (fun tp ->
        let tp = align_to t_old.schema tp in
        match Tuple.Tbl.find_opt net tp with
        | Some c -> c := !c + sign
        | None -> Tuple.Tbl.add net tp (ref sign))
      rel
  in
  tally 1 t_new;
  tally (-1) t_old;
  Tuple.Tbl.fold
    (fun tp c acc -> if !c = 0 then acc else (tp, !c) :: acc)
    net []
  |> List.sort (fun (a, _) (b, _) -> Tuple.compare a b)

(* Bits of [x >= 0]. *)
let width x =
  let rec go b = if x lsr b = 0 then b else go (b + 1) in
  go 0

let int_cell tp j =
  match Tuple.cell tp j with Value.Int x -> x | _ -> raise_notrace Exit

(* The rows [data.(off .. off + n - 1)], all [Int], sort as one radix
   sort of packed keys: each cell's offset from its column's minimum, in
   sorted-attribute order, then the
   row's position, which keeps ties in row order. [None] when a cell is
   not an [Int], or the key does not fit in a non-negative int (a column
   whose span overflows never does). *)
let packed_int_order data off n ixs =
  let k = Array.length ixs in
  let lo = Array.make k max_int and hi = Array.make k min_int in
  match
    for i = 0 to n - 1 do
      for c = 0 to k - 1 do
        let x = int_cell data.(off + i) ixs.(c) in
        if x < lo.(c) then lo.(c) <- x;
        if x > hi.(c) then hi.(c) <- x
      done
    done
  with
  | exception Exit -> None
  | () ->
      let ws =
        Array.init k (fun c ->
            let span = hi.(c) - lo.(c) in
            if span < 0 then Sys.int_size else width span)
      in
      let pos_bits = width (n - 1) in
      let bits = Array.fold_left ( + ) pos_bits ws in
      if bits >= Sys.int_size then None
      else
        let key =
          Array.init n (fun i ->
              let acc = ref 0 in
              for c = 0 to k - 1 do
                let d = int_cell data.(off + i) ixs.(c) - lo.(c) in
                acc := (!acc lsl ws.(c)) lor d
              done;
              (!acc lsl pos_bits) lor i)
        in
        let sorted =
          Radix.sort key (Array.make n 0) (Radix.counts ()) n ~lo:0
            ~range:((1 lsl bits) - 1)
        in
        let mask = (1 lsl pos_bits) - 1 in
        Some (Array.map (fun x -> data.(off + (x land mask))) sorted)

(* [Tuple.compare]'s order, stable: every row carries [t]'s attribute
   order, so one [Schema.sorted_ixs] serves them all. All-[Int] relations
   of 512 rows or more sort by radix; any other relation by a merge sort
   whose comparator skips [Value.compare]'s dispatch on [Int] pairs.
   Measured on random one- and two-column relations, the radix sort's
   fixed cost (passes over 2,048 digit counters) loses to the merge sort
   up to 128 rows of one column and 256 of two, and wins on both from
   512 (EXPERIMENTS.md). *)
let sort t =
  let data = t.buf.data and n = t.len in
  let ixs = Schema.sorted_ixs t.schema in
  let rows =
    match if n < 512 then None else packed_int_order data t.off n ixs with
    | Some rows -> rows
    | None ->
        let k = Array.length ixs in
        let rec cmp_from r1 r2 i =
          if i = k then 0
          else
            let j = ixs.(i) in
            let c =
              match (Tuple.cell r1 j, Tuple.cell r2 j) with
              | Value.Int x, Value.Int y -> Int.compare x y
              | v1, v2 -> Value.compare v1 v2
            in
            if c <> 0 then c else cmp_from r1 r2 (i + 1)
        in
        let a = Array.sub data t.off n in
        Array.stable_sort (fun r1 r2 -> cmp_from r1 r2 0) a;
        a
  in
  of_array ?name:t.name t.schema rows

(* Same size and nothing left of [t1] after taking away [t2]'s rows. *)
let equal_bag t1 t2 =
  Schema.equal_names t1.schema t2.schema
  && t1.len = t2.len
  && is_empty (against ~keep_taken:false t1 t2)

let equal_set t1 t2 = equal_bag (dedup t1) (dedup t2)

let to_table t =
  let attrs = Schema.attrs t.schema in
  let header = attrs in
  let ncols = List.length attrs in
  let body =
    tuples t
    |> List.map (fun tp ->
           List.init ncols (fun i -> Value.to_string (Tuple.cell tp i)))
  in
  let widths = Array.make (max ncols 1) 0 in
  List.iteri (fun i c -> widths.(i) <- String.length c) header;
  List.iter
    (List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)))
    body;
  let line =
    "+" ^ String.concat "+" (List.mapi (fun i _ -> String.make (widths.(i) + 2) '-') attrs) ^ "+"
  in
  let render_row cells =
    "|"
    ^ String.concat "|"
        (List.mapi
           (fun i c -> Printf.sprintf " %-*s " widths.(i) c)
           cells)
    ^ "|"
  in
  if ncols = 0 then Printf.sprintf "(%d nullary tuple(s))" t.len
  else
    String.concat "\n"
      ([ line; render_row header; line ]
      @ List.map render_row body
      @ [ line; Printf.sprintf "(%d row(s))" (List.length body) ])

let pp fmt t = Format.pp_print_string fmt (to_table t)
