open Ast

(* ------------------------------------------------------------------ *)
(* Connective simplification                                           *)
(* ------------------------------------------------------------------ *)

let rec simplify_formula f =
  match f with
  | True | Pred _ -> f
  | Not g -> (
      match simplify_formula g with Not h -> h | g' -> Not g')
  | And fs -> (
      let fs' =
        List.concat_map
          (fun g ->
            match simplify_formula g with
            | True -> []
            | And hs -> hs
            | h -> [ h ])
          fs
      in
      match fs' with [] -> True | [ g ] -> g | _ -> And fs')
  | Or fs -> (
      let fs' =
        List.concat_map
          (fun g -> match simplify_formula g with Or hs -> hs | h -> [ h ])
          fs
      in
      match fs' with [ g ] -> g | _ -> Or fs')
  | Exists s -> Exists { s with body = simplify_formula s.body }

(* [simplify_formula] stops at nested collections, which the engines
   simplify when they reach them; canonical forms and patterns apply it to
   every collection's body, innermost first *)
let rec simplify_collections n =
  match map_children simplify_collections n with
  | C c -> C { c with body = simplify_formula c.body }
  | n -> n

let simplify_query q =
  match map_query simplify_collections q with
  | Sentence f -> Sentence (simplify_formula f)
  | q -> q

(* ------------------------------------------------------------------ *)
(* Renaming                                                            *)
(* ------------------------------------------------------------------ *)

type renamer = {
  mutable next_var : int;
  mutable next_head : int;
}

let fresh_var r =
  r.next_var <- r.next_var + 1;
  Printf.sprintf "v%d" r.next_var

let fresh_head r =
  r.next_head <- r.next_head + 1;
  Printf.sprintf "q%d" r.next_head

(* [map] maps old variable/head names to new ones; scoping is handled by
   extending the association list, never mutating it. *)
let rec rename_term map = function
  | Const c -> Const c
  | Attr (v, a) ->
      Attr ((match List.assoc_opt v map with Some v' -> v' | None -> v), a)
  | Scalar (op, ts) -> Scalar (op, List.map (rename_term map) ts)
  | Agg (k, t) -> Agg (k, rename_term map t)

let rename_pred map = function
  | Cmp (op, l, r) -> Cmp (op, rename_term map l, rename_term map r)
  | Is_null t -> Is_null (rename_term map t)
  | Not_null t -> Not_null (rename_term map t)
  | Like (t, p) -> Like (rename_term map t, p)

let rec rename_join map = function
  | J_var v ->
      J_var (match List.assoc_opt v map with Some v' -> v' | None -> v)
  | J_lit c -> J_lit c
  | J_inner l -> J_inner (List.map (rename_join map) l)
  | J_left (a, b) -> J_left (rename_join map a, rename_join map b)
  | J_full (a, b) -> J_full (rename_join map a, rename_join map b)

let rec rename_formula r map = function
  | True -> True
  | Pred p -> Pred (rename_pred map p)
  | And fs -> And (List.map (rename_formula r map) fs)
  | Or fs -> Or (List.map (rename_formula r map) fs)
  | Not f -> Not (rename_formula r map f)
  | Exists s ->
      let map', bindings =
        List.fold_left
          (fun (m, bs) b ->
            let v' = fresh_var r in
            let source =
              match b.source with
              | Base n -> Base n
              | Nested c -> Nested (rename_collection r m c)
            in
            ((b.var, v') :: m, bs @ [ { var = v'; source } ]))
          (map, []) s.bindings
      in
      Exists
        {
          bindings;
          grouping =
            Option.map
              (List.map (fun (v, a) ->
                   ((match List.assoc_opt v map' with Some v' -> v' | None -> v), a)))
              s.grouping;
          join = Option.map (rename_join map') s.join;
          body = rename_formula r map' s.body;
        }

and rename_collection r map c =
  let h' = fresh_head r in
  let map' = (c.head.head_name, h') :: map in
  {
    head = { head_name = h'; head_attrs = c.head.head_attrs };
    body = rename_formula r map' c.body;
  }

(* ------------------------------------------------------------------ *)
(* Orientation and sorting                                             *)
(* ------------------------------------------------------------------ *)

let rec term_key = function
  | Const c -> "c:" ^ Arc_value.Value.to_string c
  | Attr (v, a) -> "a:" ^ v ^ "." ^ a
  | Scalar (op, ts) ->
      "s:" ^ Pp.scalar_op_symbol op ^ "("
      ^ String.concat "," (List.map term_key ts)
      ^ ")"
  | Agg (k, t) ->
      "g:" ^ Arc_value.Aggregate.kind_to_string k ^ "(" ^ term_key t ^ ")"

let orient_pred p =
  match p with
  | Cmp (Eq, l, r) | Cmp (Neq, l, r) ->
      let op = match p with Cmp (o, _, _) -> o | _ -> assert false in
      if String.compare (term_key l) (term_key r) <= 0 then Cmp (op, l, r)
      else Cmp (op, r, l)
  | Cmp (op, l, r) ->
      (* prefer the structurally smaller term on the left for <,>,<=,>= only
         when the left side is a constant (human-reading orientation) *)
      (match l with Const _ -> Cmp (cmp_op_flip op, r, l) | _ -> Cmp (op, l, r))
  | p -> p

let rec formula_key = function
  | True -> "T"
  | Pred p -> "P:" ^ Pp.pred p
  | And fs -> "A(" ^ String.concat ";" (List.map formula_key fs) ^ ")"
  | Or fs -> "O(" ^ String.concat ";" (List.map formula_key fs) ^ ")"
  | Not f -> "N(" ^ formula_key f ^ ")"
  | Exists s ->
      "E("
      ^ String.concat ","
          (List.map
             (fun b ->
               match b.source with
               | Base n -> b.var ^ ":" ^ n
               | Nested c -> b.var ^ ":{" ^ coll_key c ^ "}")
             s.bindings)
      ^ (match s.grouping with
        | None -> ""
        | Some g -> "|" ^ Pp.grouping g)
      ^ (match s.join with None -> "" | Some j -> "|" ^ Pp.join_tree j)
      ^ ")[" ^ formula_key s.body ^ "]"

and coll_key c = Pp.head c.head ^ "|" ^ formula_key c.body

let by_key a b = compare (formula_key a) (formula_key b)

let rec sort n =
  match map_children sort n with
  | F (Pred p) -> F (Pred (orient_pred p))
  | F (And fs) -> F (And (List.sort by_key fs))
  | F (Or fs) -> F (Or (List.sort by_key fs))
  | n -> n

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

let canonical_query q =
  let r = { next_var = 0; next_head = 0 } in
  map_query sort
    (match simplify_query q with
    | Coll c -> Coll (rename_collection r [] c)
    | Sentence f -> Sentence (rename_formula r [] f))

(* Skeleton: positional head attributes, canonical var names. *)

let skeleton q =
  let q = canonical_query q in
  (* map head name -> attr -> positional name *)
  let head_maps = Hashtbl.create 8 in
  let register_head (h : head) =
    let tbl = Hashtbl.create 4 in
    List.iteri (fun i a -> Hashtbl.replace tbl a (Printf.sprintf "a%d" (i + 1))) h.head_attrs;
    Hashtbl.replace head_maps h.head_name tbl
  in
  fold
    (fun () -> function C c -> register_head c.head | F _ -> ())
    () (query_node q);
  let rename_attr v a =
    match Hashtbl.find_opt head_maps v with
    | Some tbl -> (
        match Hashtbl.find_opt tbl a with Some a' -> a' | None -> a)
    | None -> a
  in
  let rec sk_term = function
    | Const c -> Arc_value.Value.to_string c
    | Attr (v, a) -> v ^ "." ^ rename_attr v a
    | Scalar (op, ts) ->
        Pp.scalar_op_symbol op ^ "(" ^ String.concat "," (List.map sk_term ts) ^ ")"
    | Agg (k, t) ->
        Arc_value.Aggregate.kind_to_string k ^ "(" ^ sk_term t ^ ")"
  in
  let sk_pred = function
    | Cmp (op, l, r) -> sk_term l ^ cmp_op_to_string op ^ sk_term r
    | Is_null t -> sk_term t ^ " null"
    | Not_null t -> sk_term t ^ " !null"
    | Like (t, p) -> sk_term t ^ " like " ^ p
  in
  let rec sk_formula = function
    | True -> "T"
    | Pred p -> sk_pred p
    | And fs -> "and(" ^ String.concat ";" (List.map sk_formula fs) ^ ")"
    | Or fs -> "or(" ^ String.concat ";" (List.map sk_formula fs) ^ ")"
    | Not f -> "not(" ^ sk_formula f ^ ")"
    | Exists s ->
        "exists("
        ^ String.concat ","
            (List.map
               (fun b ->
                 match b.source with
                 | Base n -> b.var ^ "\xe2\x88\x88" ^ n
                 | Nested c -> b.var ^ "\xe2\x88\x88" ^ sk_coll c)
               s.bindings)
        ^ (match s.grouping with
          | None -> ""
          | Some [] -> ";\xce\xb3\xe2\x88\x85"
          | Some keys ->
              ";\xce\xb3{"
              ^ String.concat "," (List.map (fun (v, a) -> v ^ "." ^ a) keys)
              ^ "}")
        ^ (match s.join with None -> "" | Some j -> ";" ^ Pp.join_tree j)
        ^ ")[" ^ sk_formula s.body ^ "]"
  and sk_coll c =
    "{" ^ c.head.head_name ^ "/"
    ^ string_of_int (List.length c.head.head_attrs)
    ^ "|" ^ sk_formula c.body ^ "}"
  in
  match q with Coll c -> sk_coll c | Sentence f -> sk_formula f
