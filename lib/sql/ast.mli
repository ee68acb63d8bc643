(** Abstract syntax for the SQL subset used throughout the paper's figures:
    SELECT [DISTINCT] with arithmetic and aggregates, FROM with comma lists,
    INNER/LEFT/FULL/CROSS and LATERAL joins, WHERE with (NOT) EXISTS,
    (NOT) IN, IS [NOT] NULL and LIKE, GROUP BY / HAVING, scalar subqueries,
    UNION [ALL] / EXCEPT / INTERSECT, and WITH [RECURSIVE] CTEs.

    This is deliberately a {e syntax} tree — e.g. joins live inside FROM
    items, mirroring SQL's concrete structure — so that the contrast with the
    semantics-first ALT (paper, Section 2.2, the SQLGlot discussion) can be
    demonstrated on real objects. *)

type expr =
  | E_const of Arc_value.Value.t
  | E_col of string option * string  (** [[table.]column] *)
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
  | T_rel of string * string option  (** [R [AS] r] *)
  | T_sub of set_query * string  (** [(SELECT …) AS x] *)
  | T_join of join_kind * table_ref * table_ref * cond option  (** ON *)
  | T_lateral of set_query * string  (** [JOIN LATERAL (…) AS x ON true] *)

and join_kind = J_inner | J_left | J_full | J_cross

and select_item = { item_expr : expr; item_alias : string option }

and select = {
  distinct : bool;
  items : select_item list;
  from : table_ref list;  (** comma-separated FROM list; [] = no FROM *)
  where : cond option;
  group_by : (string option * string) list;
  having : cond option;
  order_by : (expr * bool) list;
      (** sort keys, [true] = descending. The paper leaves ordered output to
          future work for ARC itself (Section 5); the SQL substrate supports
          it, and SQL→ARC reports it as unsupported. *)
  limit : int option;
}

and set_query =
  | Q_select of select
  | Q_union of bool * set_query * set_query  (** [true] = UNION ALL *)
  | Q_except of bool * set_query * set_query
  | Q_intersect of bool * set_query * set_query

type cte = { cte_name : string; cte_cols : string list; cte_body : set_query }

type statement = {
  with_recursive : bool;
  ctes : cte list;
  body : set_query;
}

val statement : ?recursive:bool -> ?ctes:cte list -> set_query -> statement

val select :
  ?distinct:bool ->
  ?where:cond ->
  ?group_by:(string option * string) list ->
  ?having:cond ->
  ?order_by:(expr * bool) list ->
  ?limit:int ->
  items:select_item list ->
  from:table_ref list ->
  unit ->
  select

val item : ?alias:string -> expr -> select_item
val col : ?table:string -> string -> expr

val equal_statement : statement -> statement -> bool

val item_name : int -> select_item -> string
(** Output column name of the [i]-th item: its alias, else its column name,
    else [col<i>]. *)

val cmp_to_string : cmp -> string
