open Arc_core.Ast
module V = Arc_value.Value
module B3 = Arc_value.Bool3
module Conventions = Arc_value.Conventions
module Aggregate = Arc_value.Aggregate
module Tuple = Arc_relation.Tuple
module Schema = Arc_relation.Schema
module I = Eval.Internal

type t = Tuple.t array
type layout = var array
type 'a fn = I.benv -> t -> 'a

(* The filler of a slot whose variable a row does not bind: the branches
   of an outer join's append need not all bind the same variables, and a
   by-name lookup of a variable a row lacks falls through to the enclosing
   environment. *)
let absent : Tuple.t = Tuple.make (Schema.make []) [||]

let slot (l : layout) v =
  let n = Array.length l in
  let rec go i = if i = n then None else if l.(i) = v then Some i else go (i + 1) in
  go 0

let to_benv ?(outer = []) (l : layout) (row : t) : I.benv =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (if row.(i) == absent then acc else (l.(i), row.(i)) :: acc)
  in
  go (Array.length l - 1) outer

let of_benv (l : layout) (benv : I.benv) : t =
  Array.map
    (fun v -> match List.assoc_opt v benv with Some tp -> tp | None -> absent)
    l

let cons tp (row : t) : t =
  let n = Array.length row in
  let out = Array.make (n + 1) tp in
  Array.blit row 0 out 1 n;
  out

(* [-1]: [source] does not bind the variable *)
let permutation ~(source : layout) ~(target : layout) =
  if source = target then None
  else
    Some
      (Array.map
         (fun v -> match slot source v with Some s -> s | None -> -1)
         target)

let permute perm (row : t) : t =
  Array.map (fun s -> if s < 0 then absent else row.(s)) perm

let union (ls : layout list) : layout =
  let seen = Hashtbl.create 8 in
  Array.of_list
    (List.concat_map
       (fun l ->
         List.filter
           (fun v ->
             (not (Hashtbl.mem seen v)) && (Hashtbl.replace seen v (); true))
           (Array.to_list l))
       ls)

(* ------------------------------------------------------------------ *)
(* Terms                                                               *)
(* ------------------------------------------------------------------ *)

(* The column of attribute [a] in the tuples of one slot. Tuples of one
   source share a schema, so the column is looked up once per schema the
   slot sees and then read by position; an unknown attribute raises the
   reference's error. *)
type column_cache = { mutable schema : Schema.t; mutable col : int }

let attr ctx (l : layout) v a : V.t fn =
  match slot l v with
  | None -> fun outer _ -> I.eval_term ctx outer (Attr (v, a))
  | Some s ->
      let c = { schema = Schema.make []; col = 0 } in
      fun outer row ->
        let tp = row.(s) in
        let sch = Tuple.schema tp in
        if sch == c.schema then Tuple.cell tp c.col
        else if tp == absent then I.eval_term ctx outer (Attr (v, a))
        else
          match Schema.index sch a with
          | col ->
              c.schema <- sch;
              c.col <- col;
              Tuple.cell tp col
          | exception Schema.Unknown_attribute _ ->
              I.eval_term ctx [ (v, tp) ] (Attr (v, a))

(* A well-formed scalar application over compiled arguments, left to
   right as the reference evaluates them; [None] when malformed. *)
let scalar op (args : (I.benv -> 'r -> V.t) list) :
    (I.benv -> 'r -> V.t) option =
  let binary f x y =
    Some
      (fun o r ->
        let vx = x o r in
        f vx (y o r))
  in
  match (op, args) with
  | Add, [ x; y ] -> binary V.add x y
  | Sub, [ x; y ] -> binary V.sub x y
  | Mul, [ x; y ] -> binary V.mul x y
  | Div, [ x; y ] -> binary V.div x y
  | Mod, [ x; y ] -> binary V.modulo x y
  | Neg, [ x ] -> Some (fun o r -> V.neg (x o r))
  | _ -> None

let by_name ctx l t : V.t fn =
 fun outer row -> I.eval_term ctx (to_benv ~outer l row) t

let rec term ctx (l : layout) (t : term) : V.t fn =
  match t with
  | Const c -> fun _ _ -> c
  | Attr (v, a) -> attr ctx l v a
  | Scalar (op, ts) -> (
      match scalar op (List.map (term ctx l) ts) with
      | Some f -> f
      | None -> by_name ctx l t)
  | Agg _ -> by_name ctx l t

(* [p] holds (is [True]). *)
let pred ctx (l : layout) (p : pred) : bool fn =
  match p with
  | Cmp (op, x, y) ->
      let fx = term ctx l x and fy = term ctx l y in
      fun o r ->
        let vx = fx o r in
        I.cmp_values ctx op vx (fy o r) = B3.True
  | Is_null _ | Not_null _ | Like _ ->
      let fs = List.map (term ctx l) (pred_terms p) in
      fun o r -> I.eval_pred_values ctx p (List.map (fun f -> f o r) fs) = B3.True

let preds ctx l ps : bool fn =
  match List.map (pred ctx l) ps with
  | [] -> fun _ _ -> true
  | [ p ] -> p
  | fs -> fun o r -> List.for_all (fun f -> f o r) fs

(* A residual formula holds: evaluated by name, as the reference does. *)
let formulas ctx (l : layout) fs : bool fn =
 fun outer row ->
  let full = to_benv ~outer l row in
  List.for_all (fun f -> I.eval_formula ctx full f = B3.True) fs

let key ctx (l : layout) (terms : term list) : V.t array option fn =
  let fs = Array.of_list (List.map (term ctx l) terms) in
  let nulls_match =
    match (I.conv ctx).Conventions.null_logic with
    | Conventions.Three_valued -> false
    | Conventions.Two_valued -> true
  in
  let n = Array.length fs in
  fun o r ->
    let k = Array.make n V.Null in
    let rec go i =
      i = n
      ||
      let v = fs.(i) o r in
      k.(i) <- v;
      (nulls_match || not (V.is_null v)) && go (i + 1)
    in
    if go 0 then Some k else None

(* unlike a join key, NULL groups like any other value *)
let group_key ctx (l : layout) (keys : grouping) : V.t array fn =
  let fs = Array.of_list (List.map (fun (v, a) -> attr ctx l v a) keys) in
  fun o r -> Array.map (fun f -> f o r) fs

(* ------------------------------------------------------------------ *)
(* Group-aware terms and formulas                                      *)
(* ------------------------------------------------------------------ *)

type 'a gfn = I.benv -> t list -> 'a

let rep_benv (l : layout) outer = function
  | [] -> outer
  | row :: _ -> to_benv ~outer l row

let by_name_g ctx l scope_vars t : V.t gfn =
 fun outer group ->
  I.eval_gterm ctx ~rep:(rep_benv l outer group)
    ~group:(List.map (to_benv ~outer l) group)
    ~scope_vars t

let rec gterm ctx (l : layout) scope_vars (t : term) : V.t gfn =
  match t with
  | Const c -> fun _ _ -> c
  | Attr (v, _) ->
      let f = term ctx l t and in_scope = List.mem v scope_vars in
      fun outer group -> (
        match group with
        | rep :: _ -> f outer rep
        | [] -> if in_scope then V.Null else I.eval_term ctx outer t)
  | Scalar (op, ts) -> (
      match scalar op (List.map (gterm ctx l scope_vars) ts) with
      | Some f -> f
      | None -> by_name_g ctx l scope_vars t)
  | Agg (k, inner) ->
      let f = term ctx l inner
      and empty = (I.conv ctx).Conventions.agg_empty in
      fun outer group ->
        Aggregate.apply empty k (List.map (fun row -> f outer row) group)

let rec gformula ctx (l : layout) scope_vars (f : formula) : B3.t gfn =
  let sub = gformula ctx l scope_vars in
  match f with
  | True -> fun _ _ -> B3.True
  | Pred p ->
      let fs = List.map (gterm ctx l scope_vars) (pred_terms p) in
      fun o g -> I.eval_pred_values ctx p (List.map (fun f -> f o g) fs)
  | And fs ->
      let fs = List.map sub fs in
      fun o g -> B3.and_list (List.map (fun f -> f o g) fs)
  | Or fs ->
      let fs = List.map sub fs in
      fun o g -> B3.or_list (List.map (fun f -> f o g) fs)
  | Not f ->
      let f = sub f in
      fun o g -> B3.not_ (f o g)
  | Exists _ -> fun o g -> I.eval_formula ctx (rep_benv l o g) f
