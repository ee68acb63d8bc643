type expr =
  | E_const of Arc_value.Value.t
  | E_col of string option * string
  | E_binop of binop * expr * expr
  | E_neg of expr
  | E_agg of Arc_value.Aggregate.kind * expr
  | E_count_star
  | E_scalar_subquery of set_query

and binop = B_add | B_sub | B_mul | B_div | B_mod

and cond =
  | C_true
  | C_cmp of cmp * expr * expr
  | C_and of cond list
  | C_or of cond list
  | C_not of cond
  | C_exists of set_query
  | C_in of expr * set_query
  | C_is_null of expr
  | C_is_not_null of expr
  | C_like of expr * string

and cmp = Ceq | Cneq | Clt | Cleq | Cgt | Cgeq

and table_ref =
  | T_rel of string * string option
  | T_sub of set_query * string
  | T_join of join_kind * table_ref * table_ref * cond option
  | T_lateral of set_query * string

and join_kind = J_inner | J_left | J_full | J_cross

and select_item = { item_expr : expr; item_alias : string option }

and select = {
  distinct : bool;
  items : select_item list;
  from : table_ref list;
  where : cond option;
  group_by : (string option * string) list;
  having : cond option;
  order_by : (expr * bool) list;  (* true = descending *)
  limit : int option;
}

and set_query =
  | Q_select of select
  | Q_union of bool * set_query * set_query
  | Q_except of bool * set_query * set_query
  | Q_intersect of bool * set_query * set_query

type cte = { cte_name : string; cte_cols : string list; cte_body : set_query }

type statement = {
  with_recursive : bool;
  ctes : cte list;
  body : set_query;
}

let statement ?(recursive = false) ?(ctes = []) body =
  { with_recursive = recursive; ctes; body }

let select ?(distinct = false) ?where ?(group_by = []) ?having
    ?(order_by = []) ?limit ~items ~from () =
  { distinct; items; from; where; group_by; having; order_by; limit }

let item ?alias item_expr = { item_expr; item_alias = alias }
let col ?table name = E_col (table, name)

let equal_statement (a : statement) (b : statement) = a = b

let item_name i it =
  match it.item_alias with
  | Some a -> a
  | None -> (
      match it.item_expr with
      | E_col (_, c) -> c
      | _ -> Printf.sprintf "col%d" (i + 1))

let cmp_to_string = function
  | Ceq -> "="
  | Cneq -> "<>"
  | Clt -> "<"
  | Cleq -> "<="
  | Cgt -> ">"
  | Cgeq -> ">="
