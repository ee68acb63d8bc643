open Ast
module V = Arc_value.Value

module CA = Arc_core.Ast

exception Parse_error of string

type token =
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | COMMA
  | COLON
  | DOT
  | BANG
  | TURNSTILE  (* :- *)
  | IDENT of string
  | WILD
  | NUMBER of V.t
  | STRING of string
  | OP of string
  | EOF

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let tokenize input =
  let n = String.length input in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  let pos = ref 0 in
  let peek i = if !pos + i < n then Some input.[!pos + i] else None in
  while !pos < n do
    let c = input.[!pos] in
    match c with
    | ' ' | '\t' | '\n' | '\r' -> incr pos
    | '/' when peek 1 = Some '/' ->
        while !pos < n && input.[!pos] <> '\n' do
          incr pos
        done
    | '(' -> emit LPAREN; incr pos
    | ')' -> emit RPAREN; incr pos
    | '{' -> emit LBRACE; incr pos
    | '}' -> emit RBRACE; incr pos
    | ',' -> emit COMMA; incr pos
    | '.' -> emit DOT; incr pos
    | '!' -> emit BANG; incr pos
    | ':' ->
        if peek 1 = Some '-' then (emit TURNSTILE; pos := !pos + 2)
        else (emit COLON; incr pos)
    | '=' -> emit (OP "="); incr pos
    | '<' ->
        if peek 1 = Some '=' then (emit (OP "<="); pos := !pos + 2)
        else if peek 1 = Some '>' then (emit (OP "<>"); pos := !pos + 2)
        else (emit (OP "<"); incr pos)
    | '>' ->
        if peek 1 = Some '=' then (emit (OP ">="); pos := !pos + 2)
        else (emit (OP ">"); incr pos)
    | '+' | '-' | '*' | '/' -> emit (OP (String.make 1 c)); incr pos
    | '"' ->
        let start = !pos + 1 in
        let e = ref start in
        while !e < n && input.[!e] <> '"' do incr e done;
        if !e >= n then fail "unterminated string";
        emit (STRING (String.sub input start (!e - start)));
        pos := !e + 1
    | '0' .. '9' ->
        let start = !pos in
        while !pos < n && (match input.[!pos] with '0' .. '9' -> true | _ -> false) do
          incr pos
        done;
        let lit = String.sub input start (!pos - start) in
        (match int_of_string_opt lit with
        | Some i -> emit (NUMBER (V.Int i))
        | None -> fail "integer literal %S out of range (at offset %d)" lit start)
    | '_' when (match peek 1 with
                | Some ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') -> false
                | _ -> true) ->
        emit WILD;
        incr pos
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let start = !pos in
        while
          !pos < n
          && (match input.[!pos] with
             | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
             | _ -> false)
        do
          incr pos
        done;
        emit (IDENT (String.sub input start (!pos - start)))
    | c -> fail "unexpected character %C" c
  done;
  List.rev (EOF :: !toks)

type state = { toks : token array }

let tok st i = if i < Array.length st.toks then st.toks.(i) else EOF

let expect st i t name =
  if tok st i = t then i + 1 else fail "expected %s" name

let parse_dterm st i =
  match tok st i with
  | IDENT v -> (D_var v, i + 1)
  | WILD -> (D_wild, i + 1)
  | NUMBER v -> (D_const v, i + 1)
  | STRING s -> (D_const (V.Str s), i + 1)
  | OP "-" -> (
      match tok st (i + 1) with
      | NUMBER (V.Int n) -> (D_const (V.Int (-n)), i + 2)
      | _ -> fail "expected number after '-'")
  | _ -> fail "expected term"

let rec parse_dexpr st i =
  let l, i = parse_dmul st i in
  let rec loop acc i =
    match tok st i with
    | OP "+" ->
        let r, i = parse_dmul st (i + 1) in
        loop (X_binop (CA.Add, acc, r)) i
    | OP "-" ->
        let r, i = parse_dmul st (i + 1) in
        loop (X_binop (CA.Sub, acc, r)) i
    | _ -> (acc, i)
  in
  loop l i

and parse_dmul st i =
  let l, i = parse_datom st i in
  let rec loop acc i =
    match tok st i with
    | OP "*" ->
        let r, i = parse_datom st (i + 1) in
        loop (X_binop (CA.Mul, acc, r)) i
    | OP "/" ->
        let r, i = parse_datom st (i + 1) in
        loop (X_binop (CA.Div, acc, r)) i
    | _ -> (acc, i)
  in
  loop l i

and parse_datom st i =
  match tok st i with
  | LPAREN ->
      let e, i = parse_dexpr st (i + 1) in
      let i = expect st i RPAREN ")" in
      (e, i)
  | _ ->
      let t, i = parse_dterm st i in
      (X_term t, i)

let parse_atom st i =
  match tok st i with
  | IDENT p ->
      let i = expect st (i + 1) LPAREN "(" in
      let rec args i acc =
        match tok st i with
        | RPAREN -> (i + 1, acc)
        | _ -> (
            let t, i = parse_dterm st i in
            match tok st i with
            | COMMA -> args (i + 1) (acc @ [ t ])
            | RPAREN -> (i + 1, acc @ [ t ])
            | _ -> fail "expected ',' or ')' in atom")
      in
      let i, args = args i [] in
      ({ pred = p; args }, i)
  | _ -> fail "expected atom"

let cmp_of_op = function
  | "=" -> CA.Eq
  | "<>" -> CA.Neq
  | "<" -> CA.Lt
  | "<=" -> CA.Leq
  | ">" -> CA.Gt
  | ">=" -> CA.Geq
  | op -> fail "unknown comparison %s" op

let rec parse_literal st i =
  match tok st i with
  | BANG ->
      let a, i = parse_atom st (i + 1) in
      (L_neg a, i)
  | IDENT v when tok st (i + 1) = OP "=" && is_agg st (i + 2) ->
      (* v = sum <expr> : { body } *)
      let kind =
        match tok st (i + 2) with
        | IDENT k -> Option.get (Arc_value.Aggregate.kind_of_string k)
        | _ -> assert false
      in
      let target, i = parse_dexpr st (i + 3) in
      let i = expect st i COLON ":" in
      let i = expect st i LBRACE "{" in
      let rec body i acc =
        let l, i = parse_literal st i in
        match tok st i with
        | COMMA -> body (i + 1) (acc @ [ l ])
        | RBRACE -> (i + 1, acc @ [ l ])
        | _ -> fail "expected ',' or '}' in aggregate body"
      in
      let i, body_lits = body i [] in
      (L_agg (v, kind, target, body_lits), i)
  | IDENT _ when tok st (i + 1) = LPAREN ->
      let a, i = parse_atom st i in
      (L_pos a, i)
  | _ -> (
      let l, i = parse_dexpr st i in
      match tok st i with
      | OP op ->
          let r, i = parse_dexpr st (i + 1) in
          (L_cmp (cmp_of_op op, l, r), i)
      | _ -> fail "expected comparison operator")

and is_agg st i =
  match tok st i with
  | IDENT k -> Arc_value.Aggregate.kind_of_string k <> None
  | _ -> false

let parse_rule st i =
  let head, i = parse_atom st i in
  match tok st i with
  | DOT -> ({ head; body = [] }, i + 1)
  | TURNSTILE ->
      let rec body i acc =
        let l, i = parse_literal st i in
        match tok st i with
        | COMMA -> body (i + 1) (acc @ [ l ])
        | DOT -> (i + 1, acc @ [ l ])
        | _ -> fail "expected ',' or '.' after literal"
      in
      let i, lits = body (i + 1) [] in
      ({ head; body = lits }, i)
  | _ -> fail "expected ':-' or '.' after head"

let run f input =
  let st = { toks = Array.of_list (tokenize input) } in
  let v, i = f st 0 in
  if tok st i <> EOF then fail "trailing input" else v

let program_of_string s =
  run
    (fun st i ->
      let rec rules i acc =
        if tok st i = EOF then (acc, i)
        else
          let r, i = parse_rule st i in
          rules i (acc @ [ r ])
      in
      rules i [])
    s
