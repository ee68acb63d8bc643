module Value = Arc_value.Value

type t = { schema : Schema.t; cells : Value.t array }

let make schema cells =
  if Array.length cells <> Schema.arity schema then
    invalid_arg "Tuple.make: arity mismatch";
  { schema; cells }

let of_alist pairs =
  let schema = Schema.make (List.map fst pairs) in
  { schema; cells = Array.of_list (List.map snd pairs) }

let schema t = t.schema
let get t name = t.cells.(Schema.index t.schema name)
let cell t i = t.cells.(i)
let values t = Array.to_list t.cells

let project t names =
  let schema = Schema.project t.schema names in
  { schema; cells = Array.of_list (List.map (get t) names) }

let rename_schema t schema' =
  if Schema.arity schema' <> Array.length t.cells then
    invalid_arg "Tuple.rename_schema: arity mismatch";
  { schema = schema'; cells = t.cells }

let sorted_attrs t = Schema.sorted_attrs t.schema

(* Length-prefixed attribute names plus Value.canonical cells: no choice of
   attribute names or string values can make two distinct tuples collide
   (the old "A=x|B=y" form collided with values containing '|' or '='). *)
let key t =
  let parts = Schema.key_parts t.schema and ixs = Schema.sorted_ixs t.schema in
  let buf = Buffer.create 32 in
  Array.iteri
    (fun i p ->
      Buffer.add_string buf p;
      Buffer.add_string buf (Value.canonical t.cells.(ixs.(i))))
    parts;
  Buffer.contents buf

(* Both orders walk the cells in sorted-attribute order. Over the same
   attribute set, the i-th sorted attribute is the same name in both
   tuples, so each tuple's [Schema.sorted_ixs] gives its cell directly. *)
let for_sorted_cells t1 t2 f =
  let ix1 = Schema.sorted_ixs t1.schema and ix2 = Schema.sorted_ixs t2.schema in
  let n = Array.length ix1 in
  let rec go i =
    if i = n then 0
    else
      match f t1.cells.(ix1.(i)) t2.cells.(ix2.(i)) with
      | 0 -> go (i + 1)
      | c -> c
  in
  go 0

(* Rows of one relation share its schema: they compare cell by cell, in
   a loop that allocates nothing (set dedup and the fixpoint's index
   call this once per probe). *)
let equal t1 t2 =
  if t1.schema == t2.schema then begin
    let c1 = t1.cells and c2 = t2.cells and i = ref 0 in
    while !i < Array.length c1 && Value.key_equal c1.(!i) c2.(!i) do
      incr i
    done;
    !i = Array.length c1
  end
  else
    Schema.equal_names t1.schema t2.schema
    && for_sorted_cells t1 t2 (fun a b -> if Value.key_equal a b then 0 else 1)
       = 0

let compare t1 t2 =
  if Schema.equal_names t1.schema t2.schema then
    for_sorted_cells t1 t2 Value.compare
  else Stdlib.compare (sorted_attrs t1) (sorted_attrs t2)

let hash_step h v = (h * 31) + Value.key_hash v

(* cells in sorted-attribute order, so that the hash agrees with the
   name-based [equal] whatever the attribute order *)
let hash t =
  let ixs = Schema.sorted_ixs t.schema in
  let h = ref 0 in
  for i = 0 to Array.length ixs - 1 do
    h := hash_step !h t.cells.(ixs.(i))
  done;
  !h land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Key_tbl = Hashtbl.Make (struct
  type t = Value.t array

  let equal k1 k2 =
    let n = Array.length k1 in
    n = Array.length k2
    &&
    let rec go i = i = n || (Value.key_equal k1.(i) k2.(i) && go (i + 1)) in
    go 0

  let hash k = Array.fold_left hash_step 0 k land max_int
end)

let to_string t =
  "("
  ^ String.concat ", "
      (List.map
         (fun a -> a ^ ": " ^ Value.to_string (get t a))
         (Schema.attrs t.schema))
  ^ ")"

let pp fmt t = Format.pp_print_string fmt (to_string t)
