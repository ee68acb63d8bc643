open Arc_core.Ast
module V = Arc_value.Value
module Aggregate = Arc_value.Aggregate

type sym = {
  exists_ : string;
  in_ : string;
  and_ : string;
  or_ : string;
  not_ : string;
  gamma : string;
  empty : string;
}

let usym =
  {
    exists_ = "\xe2\x88\x83" (* ∃ *);
    in_ = "\xe2\x88\x88" (* ∈ *);
    and_ = "\xe2\x88\xa7" (* ∧ *);
    or_ = "\xe2\x88\xa8" (* ∨ *);
    not_ = "\xc2\xac" (* ¬ *);
    gamma = "\xce\xb3" (* γ *);
    empty = "\xe2\x88\x85" (* ∅ *);
  }

let asym =
  {
    exists_ = "exists ";
    in_ = "in";
    and_ = "and";
    or_ = "or";
    not_ = "not ";
    gamma = "gamma";
    empty = "0";
  }

let sym unicode = if unicode then usym else asym

let is_plain_ident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true | _ -> false)
       s

let quote_ident s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let ident s = if is_plain_ident s then s else quote_ident s

let attr_ref v a =
  ident v ^ "."
  ^
  if
    is_plain_ident a
    || (a <> "" && String.for_all (function '0' .. '9' | '$' -> true | _ -> false) a)
  then a
  else quote_ident a

let rec term_str t =
  match t with
  | Const c -> V.to_string c
  | Attr (v, a) -> attr_ref v a
  | Scalar (Neg, [ x ]) -> "-" ^ atom_str x
  | Scalar (op, [ l; r ]) ->
      Printf.sprintf "%s %s %s" (atom_str l)
        (Arc_core.Pp.scalar_op_symbol op)
        (atom_str r)
  | Scalar (op, ts) ->
      Printf.sprintf "%s(%s)"
        (Arc_core.Pp.scalar_op_symbol op)
        (String.concat ", " (List.map term_str ts))
  | Agg (k, t) ->
      Printf.sprintf "%s(%s)" (Aggregate.kind_to_string k) (term_str t)

and atom_str t =
  match t with
  | Scalar ((Add | Sub | Mul | Div | Mod), [ _; _ ]) -> "(" ^ term_str t ^ ")"
  | _ -> term_str t

let pred_str p =
  match p with
  | Cmp (op, l, r) ->
      Printf.sprintf "%s %s %s" (term_str l) (cmp_op_to_string op) (term_str r)
  | Is_null t -> term_str t ^ " is null"
  | Not_null t -> term_str t ^ " is not null"
  | Like (t, pat) ->
      Printf.sprintf "%s like %s" (term_str t) (V.to_string (V.Str pat))

let rec join_tree_str jt =
  match jt with
  | J_var v -> ident v
  | J_lit c -> V.to_string c
  | J_inner l -> "inner(" ^ String.concat ", " (List.map join_tree_str l) ^ ")"
  | J_left (a, b) -> "left(" ^ join_tree_str a ^ ", " ^ join_tree_str b ^ ")"
  | J_full (a, b) -> "full(" ^ join_tree_str a ^ ", " ^ join_tree_str b ^ ")"

let grouping_str s keys =
  match keys with
  | [] -> s.gamma ^ "_" ^ s.empty
  | keys ->
      s.gamma ^ "_{"
      ^ String.concat ", " (List.map (fun (v, a) -> attr_ref v a) keys)
      ^ "}"

let head_str h =
  ident h.head_name ^ "(" ^ String.concat ", " (List.map (fun a -> if is_plain_ident a then a else "\"" ^ a ^ "\"") h.head_attrs) ^ ")"

let rec formula_str s f =
  match f with
  | True -> "true"
  | Pred p -> pred_str p
  (* the empty conjunction/disjunction are the constants true/false *)
  | And [] -> "true"
  | Or [] -> "false"
  | And fs ->
      String.concat (" " ^ s.and_ ^ " ") (List.map (conj_atom s) fs)
  | Or fs -> String.concat (" " ^ s.or_ ^ " ") (List.map (disj_atom s) fs)
  | Not f -> s.not_ ^ paren_unless_atomic s f
  | Exists scope -> exists_str s scope

(* Directly nested connectives of the same kind are parenthesized so the
   printed tree parses back to the identical AST (no silent flattening). *)
and conj_atom s f =
  match f with
  | Or [] -> formula_str s f
  | Or _ | And _ -> "(" ^ formula_str s f ^ ")"
  | _ -> formula_str s f

and disj_atom s f =
  match f with Or _ -> "(" ^ formula_str s f ^ ")" | _ -> formula_str s f

and paren_unless_atomic s f =
  match f with
  | Pred _ | Exists _ | Not _ | True -> formula_str s f
  | _ -> "(" ^ formula_str s f ^ ")"

and exists_str s scope =
  let bindings =
    List.map
      (fun b ->
        match b.source with
        | Base n -> ident b.var ^ " " ^ s.in_ ^ " " ^ ident n
        | Nested c -> ident b.var ^ " " ^ s.in_ ^ " " ^ collection_str s c)
      scope.bindings
  in
  let extras =
    (match scope.grouping with
    | Some keys -> [ grouping_str s keys ]
    | None -> [])
    @ match scope.join with Some jt -> [ join_tree_str jt ] | None -> []
  in
  s.exists_
  ^ String.concat ", " (bindings @ extras)
  ^ "[" ^ formula_str s scope.body ^ "]"

and collection_str s c =
  "{" ^ head_str c.head ^ " | " ^ formula_str s c.body ^ "}"

let term ?(unicode = true) t =
  ignore unicode;
  term_str t

let pred ?(unicode = true) p =
  ignore unicode;
  pred_str p

let formula ?(unicode = true) f = formula_str (sym unicode) f
let collection ?(unicode = true) c = collection_str (sym unicode) c

let query ?(unicode = true) q =
  match q with
  | Coll c -> collection_str (sym unicode) c
  | Sentence f -> formula_str (sym unicode) f

let program ?(unicode = true) (p : program) =
  let s = sym unicode in
  String.concat "\n"
    (List.map
       (fun d ->
         Printf.sprintf "def %s := %s" (ident d.def_name)
           (collection_str s d.def_body))
       p.defs
    @ [ query ~unicode p.main ])

(* ------------------------------------------------------------------ *)
(* Pretty multi-line layout                                            *)
(* ------------------------------------------------------------------ *)

let pretty_query ?(unicode = true) ?(width = 72) q =
  let s = sym unicode in
  let buf = Buffer.create 256 in
  let pad n = String.make n ' ' in
  let rec p_formula ind f =
    let one_line = formula_str s f in
    if String.length one_line + ind <= width then Buffer.add_string buf one_line
    else
      match f with
      | And fs ->
          List.iteri
            (fun i g ->
              if i > 0 then (
                Buffer.add_string buf ("\n" ^ pad ind ^ s.and_ ^ " "));
              p_formula (ind + 2) g)
            fs
      | Or fs ->
          List.iteri
            (fun i g ->
              if i > 0 then
                Buffer.add_string buf ("\n" ^ pad ind ^ s.or_ ^ " ");
              p_formula (ind + 2) g)
            fs
      | Not g ->
          Buffer.add_string buf (s.not_ ^ "(");
          p_formula (ind + 2) g;
          Buffer.add_string buf ")"
      | Exists scope -> p_exists ind scope
      | _ -> Buffer.add_string buf one_line
  and p_exists ind scope =
    let bindings =
      List.map
        (fun b ->
          match b.source with
          | Base n -> ident b.var ^ " " ^ s.in_ ^ " " ^ ident n
          | Nested c ->
              let one = collection_str s c in
              if String.length one + ind <= width then
                ident b.var ^ " " ^ s.in_ ^ " " ^ one
              else ident b.var ^ " " ^ s.in_ ^ " " ^ p_coll_string (ind + 2) c)
        scope.bindings
    in
    let extras =
      (match scope.grouping with
      | Some keys -> [ grouping_str s keys ]
      | None -> [])
      @ match scope.join with Some jt -> [ join_tree_str jt ] | None -> []
    in
    Buffer.add_string buf (s.exists_ ^ String.concat ", " (bindings @ extras));
    Buffer.add_string buf ("\n" ^ pad ind ^ "[");
    p_formula (ind + 1) scope.body;
    Buffer.add_string buf "]"
  and p_coll_string ind c =
    let sub = pretty_coll ind c in
    sub
  and pretty_coll ind c =
    let b2 = Buffer.create 128 in
    Buffer.add_string b2 ("{" ^ head_str c.head ^ " |\n" ^ pad (ind + 2));
    let saved = Buffer.contents buf in
    Buffer.clear buf;
    p_formula (ind + 2) c.body;
    Buffer.add_string b2 (Buffer.contents buf);
    Buffer.clear buf;
    Buffer.add_string buf saved;
    Buffer.add_string b2 "}";
    Buffer.contents b2
  in
  (match q with
  | Coll c ->
      Buffer.add_string buf ("{" ^ head_str c.head ^ " | ");
      p_formula 2 c.body;
      Buffer.add_string buf "}"
  | Sentence f -> p_formula 0 f);
  Buffer.contents buf
