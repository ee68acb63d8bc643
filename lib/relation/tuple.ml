module Value = Arc_value.Value

(* [key_cache] memoizes the canonical key: tuples are immutable and key
   computation (canonical cell serialization) dominates dedup/diff/group
   hot paths. Never exposed — equality and polymorphic hashing on [t]
   are not used anywhere (all hashing goes through [key] strings). *)
type t = {
  schema : Schema.t;
  cells : Value.t array;
  mutable key_cache : string option;
}

let make schema cells =
  if Array.length cells <> Schema.arity schema then
    invalid_arg "Tuple.make: arity mismatch";
  { schema; cells; key_cache = None }

let of_alist pairs =
  let schema = Schema.make (List.map fst pairs) in
  { schema; cells = Array.of_list (List.map snd pairs); key_cache = None }

let schema t = t.schema
let get t name = t.cells.(Schema.index t.schema name)
let cell t i = t.cells.(i)
let values t = Array.to_list t.cells

let project t names =
  let schema = Schema.project t.schema names in
  { schema; cells = Array.of_list (List.map (get t) names); key_cache = None }

let rename_schema t schema' =
  if Schema.arity schema' <> Array.length t.cells then
    invalid_arg "Tuple.rename_schema: arity mismatch";
  { schema = schema'; cells = t.cells; key_cache = None }

let concat t1 t2 =
  {
    schema = Schema.union t1.schema t2.schema;
    cells = Array.append t1.cells t2.cells;
    key_cache = None;
  }

let sorted_attrs t = Schema.sorted_attrs t.schema

(* Length-prefixed attribute names plus Value.canonical cells: no choice of
   attribute names or string values can make two distinct tuples collide
   (the old "A=x|B=y" form collided with values containing '|' or '='). *)
let key t =
  match t.key_cache with
  | Some k -> k
  | None ->
      let parts = Schema.key_parts t.schema
      and ixs = Schema.sorted_ixs t.schema in
      let buf = Buffer.create 32 in
      Array.iteri
        (fun i p ->
          Buffer.add_string buf p;
          Buffer.add_string buf (Value.canonical t.cells.(ixs.(i))))
        parts;
      let k = Buffer.contents buf in
      t.key_cache <- Some k;
      k

let equal t1 t2 =
  match (t1.key_cache, t2.key_cache) with
  | Some k1, Some k2 -> k1 = k2 (* key is injective up to [equal] *)
  | _ ->
      Schema.equal_names t1.schema t2.schema
      && List.for_all
           (fun a -> Value.equal (get t1 a) (get t2 a))
           (sorted_attrs t1)

let compare t1 t2 =
  let a1 = sorted_attrs t1 and a2 = sorted_attrs t2 in
  match Stdlib.compare a1 a2 with
  | 0 ->
      List.fold_left
        (fun acc a -> if acc <> 0 then acc else Value.compare (get t1 a) (get t2 a))
        0 a1
  | c -> c

let to_string t =
  "("
  ^ String.concat ", "
      (List.map
         (fun a -> a ^ ": " ^ Value.to_string (get t a))
         (Schema.attrs t.schema))
  ^ ")"

let pp fmt t = Format.pp_print_string fmt (to_string t)
