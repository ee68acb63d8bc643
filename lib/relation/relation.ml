module Value = Arc_value.Value

(* The rows of [t] are [t.buf.data.(0 .. t.len - 1)]. Appending to a
   relation whose [len] is its buffer's [fill] (the newest version built
   on that buffer) writes the new rows in place behind it; any older
   version copies first. Slots below [fill] are never written again, so
   every version once handed out keeps seeing the same rows. *)
type buf = { mutable data : Tuple.t array; mutable fill : int }
type t = { name : string option; schema : Schema.t; buf : buf; len : int }

let of_array ?name schema data =
  let len = Array.length data in
  { name; schema; buf = { data; fill = len }; len }

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

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Relation.get: index out of bounds";
  t.buf.data.(i)

let iter f t =
  let data = t.buf.data in
  for i = 0 to t.len - 1 do
    f data.(i)
  done

let take n t = if n >= t.len then t else { t with len = max 0 n }

let tuples t =
  let data = t.buf.data in
  let rec go i acc = if i < 0 then acc else go (i - 1) (data.(i) :: acc) in
  go (t.len - 1) []

let map_rows f t = Array.init t.len (fun i -> f t.buf.data.(i))

(* [t] with [n] more rows, [src.(0 .. n - 1)]: in place when [t] is the
   newest version of its buffer (doubling its capacity when full), into a
   fresh buffer otherwise. *)
let append t src n =
  if n = 0 then t
  else
    let b = t.buf and total = t.len + n in
    let b =
      if t.len = b.fill && total <= Array.length b.data then b
      else
        let cap = if t.len = b.fill then max total (2 * t.len) else total in
        let data = Array.make cap src.(0) in
        Array.blit b.data 0 data 0 t.len;
        if t.len = b.fill then (
          b.data <- data;
          b)
        else { data; fill = t.len }
    in
    Array.blit src 0 b.data t.len n;
    b.fill <- total;
    { t with buf = b; len = total }

(* The rows [keep] accepts, in order, calling it once per row; [t] itself
   when it accepts all. *)
let select keep t =
  let data = t.buf.data in
  let rec first i =
    if i = t.len || not (keep data.(i)) then i else first (i + 1)
  in
  let i0 = first 0 in
  if i0 = t.len then t
  else begin
    let out = Array.sub data 0 t.len and k = ref i0 in
    for i = i0 + 1 to t.len - 1 do
      if keep data.(i) then (
        out.(!k) <- data.(i);
        incr k)
    done;
    { t with buf = { data = out; fill = !k }; len = !k }
  end

let dedup t =
  let seen = Tuple.Tbl.create (max 64 t.len) in
  select (Tuple.add_unseen seen) t

let add t tp =
  check_row "Relation.add" t.schema tp;
  append t [| tp |] 1

let align_to schema tp =
  if Schema.equal (Tuple.schema tp) schema then tp
  else Tuple.project tp (Schema.attrs schema)

let union t1 t2 =
  if not (Schema.equal_names t1.schema t2.schema) then
    invalid_arg "Relation.union: schema mismatch";
  let src =
    if Schema.equal t1.schema t2.schema then t2.buf.data
    else map_rows (align_to t1.schema) t2
  in
  { (append t1 src t2.len) with name = None }

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
   equality [dedup]/[minus]/[intersect] use, so Null matches Null and
   Int 1 matches Float 1.0 under either null-logic convention. *)

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
  append kept inserts (Array.length inserts)

let diff_signed t_old t_new =
  if not (Schema.equal_names t_old.schema t_new.schema) then
    invalid_arg "Relation.diff_signed: schema mismatch";
  let net = Tuple.Tbl.create 64 in
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

let sort t =
  let a = Array.sub t.buf.data 0 t.len in
  Array.stable_sort Tuple.compare a;
  of_array ?name:t.name t.schema a

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
