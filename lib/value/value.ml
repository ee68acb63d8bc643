type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type ty = T_any | T_int | T_float | T_str | T_bool

exception Type_error of string

let type_of = function
  | Null -> T_any
  | Int _ -> T_int
  | Float _ -> T_float
  | Str _ -> T_str
  | Bool _ -> T_bool

let ty_name = function
  | T_any -> "any"
  | T_int -> "int"
  | T_float -> "float"
  | T_str -> "string"
  | T_bool -> "bool"

let is_null = function Null -> true | _ -> false

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 2
  | Str _ -> 3

(* The floats [canonical] serializes as integers. *)
let int_key f = Float.is_integer f && Float.abs f <= 4.0e18

(* Floats order as [Stdlib.compare] orders them (NaN below every number),
   except that NaNs of different signs differ, as their hash keys do. *)
let compare_float x y =
  match Stdlib.compare x y with
  | 0 when Float.is_nan x ->
      Bool.compare (Float.sign_bit y) (Float.sign_bit x)
  | c -> c

(* An int against a float, exactly: no rounding of [x] to a float, so
   [2^53 + 1] is above [2^53.]. The two compare equal exactly when they
   are one hash key ([key_equal]); an integral float beyond the integer
   keys that equals [x] orders right after it. *)
let compare_int_float x f =
  if Float.is_nan f then 1
  else if f >= 0x1p62 then -1
  else if f < -0x1p62 then 1
  else
    (* [f] is within the int range, so its truncation is exact *)
    let i = Float.to_int f in
    if x <> i then Int.compare x i
    else
      match Float.compare (Float.of_int i) f with
      | 0 -> if int_key f then 0 else -1
      | c -> c

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> compare_float x y
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> -compare_int_float y x
  | Str x, Str y -> Stdlib.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | _ -> Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0

let cmp3 a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | Int _, Str _ | Str _, Int _ | Float _, Str _ | Str _, Float _
  | Bool _, Int _ | Int _, Bool _ | Bool _, Float _ | Float _, Bool _
  | Bool _, Str _ | Str _, Bool _ ->
      raise
        (Type_error
           (Printf.sprintf "cannot compare %s with %s" (ty_name (type_of a))
              (ty_name (type_of b))))
  | _ -> Some (compare a b)

let arith name fi ff a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (fi x y)
  | Float x, Float y -> Float (ff x y)
  | Int x, Float y -> Float (ff (float_of_int x) y)
  | Float x, Int y -> Float (ff x (float_of_int y))
  | _ ->
      raise
        (Type_error
           (Printf.sprintf "%s: non-numeric operands %s, %s" name
              (ty_name (type_of a))
              (ty_name (type_of b))))

let add = arith "+" ( + ) ( +. )
let sub = arith "-" ( - ) ( -. )
let mul = arith "*" ( * ) ( *. )

(* SQL-style: division (and modulo) by zero is NULL, not an error. This
   also keeps float division total — no infinities or NaNs escape into
   result sets, where their canonical forms would not round-trip. *)
let is_zero = function Int 0 -> true | Float f -> f = 0.0 | _ -> false

let div a b = if is_zero b then Null else arith "/" ( / ) ( /. ) a b

let modulo a b =
  if is_zero b then Null else arith "%" ( mod ) Float.rem a b

let neg = function
  | Null -> Null
  | Int x -> Int (-x)
  | Float x -> Float (-.x)
  | v -> raise (Type_error ("neg: non-numeric operand " ^ ty_name (type_of v)))

let to_float = function
  | Int x -> Some (float_of_int x)
  | Float x -> Some x
  | _ -> None

(* SQL LIKE: '%' matches any sequence, '_' any single char. *)
let like v pat =
  match v with
  | Null -> None
  | Str s ->
      let n = String.length s and m = String.length pat in
      (* memoized recursive match *)
      let memo = Hashtbl.create 16 in
      let rec go i j =
        match Hashtbl.find_opt memo (i, j) with
        | Some r -> r
        | None ->
            let r =
              if j = m then i = n
              else
                match pat.[j] with
                | '%' -> go i (j + 1) || (i < n && go (i + 1) j)
                | '_' -> i < n && go (i + 1) (j + 1)
                | c -> i < n && s.[i] = c && go (i + 1) (j + 1)
            in
            Hashtbl.add memo (i, j) r;
            r
      in
      Some (go 0 0)
  | _ -> raise (Type_error "LIKE applied to non-string")

(* Shortest decimal form that parses back to the same float. *)
let float_repr x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

(* SQL-style single-quoted literal: embedded quotes double. *)
let quote_str s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '\'';
  String.iter
    (fun c ->
      if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '\'';
  Buffer.contents buf

let to_string = function
  | Null -> "null"
  | Int x -> string_of_int x
  | Float x -> float_repr x
  | Str s -> quote_str s
  | Bool b -> string_of_bool b

let pp fmt v = Format.pp_print_string fmt (to_string v)

(* Injective (up to [key_equal]) serialization for hash keys. Every form is
   self-delimiting — tagged, and either fixed-width, terminated by ';', or
   length-prefixed — so concatenations of canonical forms can never collide
   the way naive [to_string] concatenations do. Int/Float values that
   compare equal (e.g. [Int 1] and [Float 1.0]) share the "d" form. *)
let canonical = function
  | Null -> "n;"
  | Bool true -> "b1;"
  | Bool false -> "b0;"
  | Int x -> "d" ^ string_of_int x ^ ";"
  | Float f ->
      if int_key f then
        "d" ^ string_of_int (int_of_float f) ^ ";"
      else "f" ^ Printf.sprintf "%h" f ^ ";"
  | Str s -> "s" ^ string_of_int (String.length s) ^ ":" ^ s

(* Hash-key equality and hash, consistent with [canonical]: [key_equal a
   b] iff [canonical a = canonical b], without building either string. A
   float is an integer key exactly when [canonical] prints it in the "d"
   form, so [-0.0] keys as [Int 0]; other floats key by value, NaNs by
   sign as their "%h" forms do. *)
let key_equal a b =
  match (a, b) with
  | Null, Null -> true
  | Int x, Int y -> x = y
  | Int x, Float f | Float f, Int x -> int_key f && int_of_float f = x
  | Float x, Float y ->
      x = y
      || Float.is_nan x && Float.is_nan y
         && Bool.equal (Float.sign_bit x) (Float.sign_bit y)
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | _ -> false

(* Multiply-xorshift: spreads an int's bits into the low bits that pick a
   hash bucket, without a call into the runtime. *)
let hash_int x =
  let h = x * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let key_hash = function
  | Null -> 0x2f1
  | Bool b -> if b then 0x3a7 else 0x1c5
  | Int x -> hash_int x
  | Float f -> if int_key f then hash_int (int_of_float f) else Hashtbl.hash f
  | Str s -> Hashtbl.hash s

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = key_equal
  let hash = key_hash
end)

let int x = Int x
let str s = Str s
let float x = Float x
let bool b = Bool b
