(* Seeded inputs. Every table, query text and update batch the benchmark
   hands the engine is drawn here from one [Random.State.t], so a seed fixes
   the whole input stream and the engine sees nothing else. *)

module V = Arc_value.Value
module Relation = Arc_relation.Relation
module Database = Arc_relation.Database
module Schema = Arc_relation.Schema
module Tuple = Arc_relation.Tuple

(* ------------------------------------------------------------------ *)
(* The order-management schema of examples/analytics_workload.ml       *)
(* ------------------------------------------------------------------ *)

type customer = { cid : int; name : string; region : string }
type order = { oid : int; ocid : int; total : int; year : int }
type item = { ioid : int; sku : string; qty : int }

type shop = {
  customers : customer array;
  orders : order array;
  items : item array;
}

let regions = [| "north"; "south"; "east"; "west"; "central" |]
let first_year = 2019
let years = 6
let max_total = 1000

let schemas =
  [
    ("Customers", [ "cid"; "name"; "region" ]);
    ("Orders", [ "oid"; "cid"; "total"; "year" ]);
    ("Items", [ "oid"; "sku"; "qty" ]);
  ]

let int = Random.State.int
let pick rng a = a.(int rng (Array.length a))

(* Names repeat (bag semantics shows in the results) and the last tenth of
   the customers never orders (Q1 has rows in every year). *)
let customer rng cid ~n =
  let name = Printf.sprintf "n%d" (int rng (max 1 (n * 3 / 4))) in
  { cid; name; region = pick rng regions }

let buyers customers = max 1 (customers * 9 / 10)

let order rng oid ~buyers =
  let ocid = int rng buyers in
  let total = 1 + int rng max_total in
  { oid; ocid; total; year = first_year + int rng years }

let shop rng ~customers ~orders ~items =
  let cs = Array.init customers (fun cid -> customer rng cid ~n:customers) in
  let os =
    Array.init orders (fun oid -> order rng oid ~buyers:(buyers customers))
  in
  let is =
    Array.init items (fun _ ->
        let ioid = int rng orders in
        let sku = Printf.sprintf "sku%d" (int rng 200) in
        { ioid; sku; qty = 1 + int rng 10 })
  in
  { customers = cs; orders = os; items = is }

let customer_row c = [ V.Int c.cid; V.Str c.name; V.Str c.region ]
let order_row o = [ V.Int o.oid; V.Int o.ocid; V.Int o.total; V.Int o.year ]
let item_row i = [ V.Int i.ioid; V.Str i.sku; V.Int i.qty ]

let shop_db s =
  let rel name rows =
    (name, Relation.of_rows (List.assoc name schemas) (Array.to_list rows))
  in
  Database.of_list
    [
      rel "Customers" (Array.map customer_row s.customers);
      rel "Orders" (Array.map order_row s.orders);
      rel "Items" (Array.map item_row s.items);
    ]

(* ------------------------------------------------------------------ *)
(* Dashboard queries with per-op constants                             *)
(* ------------------------------------------------------------------ *)

type query =
  | Q1 of { year : int }  (* customers without an order that year: anti-join *)
  | Q2 of { min_total : int }  (* spend per customer: join + group *)
  | Q3 of { year : int; min_rev : int }  (* join + filter + HAVING *)
  | Q8 of { region : string; min_total : int }  (* IN: semi-join *)
  | Q4 of { min_total : int }  (* lateral count per customer *)
  | Q6 of { year : int }  (* orders above their customer's average *)

let sql = function
  | Q1 { year } ->
      Printf.sprintf
        "select C.name from Customers C where not exists (select 1 from \
         Orders O where O.cid = C.cid and O.year = %d)"
        year
  | Q2 { min_total } ->
      Printf.sprintf
        "select C.name, sum(O.total) spend from Customers C, Orders O where \
         C.cid = O.cid and O.total > %d group by C.cid, C.name"
        min_total
  | Q3 { year; min_rev } ->
      Printf.sprintf
        "select C.region, sum(O.total) rev from Customers C, Orders O where \
         C.cid = O.cid and O.year = %d group by C.region having sum(O.total) \
         > %d"
        year min_rev
  | Q8 { region; min_total } ->
      Printf.sprintf
        "select C.name from Customers C where C.region = '%s' and C.cid in \
         (select O.cid from Orders O where O.total > %d)"
        region min_total
  | Q4 { min_total } ->
      Printf.sprintf
        "select C.name, X.ct from Customers C join lateral (select \
         count(O.oid) ct from Orders O where O.cid = C.cid and O.total > %d) \
         X on true"
        min_total
  | Q6 { year } ->
      Printf.sprintf
        "select O.oid from Orders O where O.total > (select avg(O2.total) \
         from Orders O2 where O2.cid = O.cid and O2.year <> %d)"
        year

let year rng = first_year + int rng years

(* Q1, Q2, Q3 and Q8 by index, round-robin. Q3's threshold sits around
   the mean revenue of one region in one year, so an op returns anywhere
   from none to all of the regions. *)
let analytics_query rng (s : shop) i =
  match i mod 4 with
  | 0 -> Q1 { year = year rng }
  | 1 -> Q2 { min_total = int rng 100 }
  | 2 ->
      let mean =
        Array.length s.orders * (max_total + 1) / 2
        / (years * Array.length regions)
      in
      let year = year rng in
      Q3 { year; min_rev = mean * (90 + int rng 21) / 100 }
  | _ ->
      let region = pick rng regions in
      Q8 { region; min_total = 500 + int rng 500 }

(* Q6 at every third index, Q4 at the others. *)
let correlated_query rng i =
  if i mod 3 = 2 then Q6 { year = year rng }
  else Q4 { min_total = int rng max_total }

(* ------------------------------------------------------------------ *)
(* Transitive closure (eq16) over a chain                              *)
(* ------------------------------------------------------------------ *)

let chain_db n =
  Database.of_list
    [
      ( "P",
        Relation.of_rows [ "s"; "t" ]
          (List.init n (fun i -> [ V.Int i; V.Int (i + 1) ])) );
    ]

(* eq16 as ARC text. It has no constants (a constant would make magic sets
   rewrite it), so the range-variable names are drawn per op instead: the
   text still differs from op to op. *)
let eq16_text k =
  Printf.sprintf
    "def A := {A(s,t) | exists p%d in P[A.s = p%d.s and A.t = p%d.t] or \
     exists p%d in P, b%d in A[A.s = p%d.s and p%d.t = b%d.s and b%d.t = \
     A.t]} {Q(s,t) | exists a%d in A[Q.s = a%d.s and Q.t = a%d.t]}"
    k k k k k k k k k k k k

let tc_text rng = eq16_text (int rng 10_000)

(* ------------------------------------------------------------------ *)
(* The query mix                                                       *)
(* ------------------------------------------------------------------ *)

(* One op of the query mix: a dashboard query against the large shop
   ([analytics_query]'s index), a correlated query against the small shop
   ([correlated_query]'s index), or eq16 over the chain. *)
type slot = Dashboard of int | Correlated of int | Closure

(* The fixed 20-op cycle of the query mix, kinds interleaved so a slow
   phase of the host hits every kind alike. Sorted by latency the kinds
   form bands: Q4 (30%), then the dashboard queries (40%), then Q6 (10%),
   then the closure (20%). So the median falls in the middle of the
   dashboard band, between Q1 and Q3, which take about the same time, and
   the 90th percentile in the middle of the closure band. *)
let mix =
  let q1 = Dashboard 0 and q2 = Dashboard 1 and q3 = Dashboard 2 in
  let q8 = Dashboard 3 and q4 = Correlated 0 and q6 = Correlated 2 in
  let tc = Closure in
  [| q4; q1; tc; q4; q2; q6; q3; q4; tc; q8;
     q4; q1; tc; q4; q2; q6; q3; q4; tc; q8 |]

(* ------------------------------------------------------------------ *)
(* IVM update stream                                                   *)
(* ------------------------------------------------------------------ *)

let rollup_sql =
  "select C.region, sum(O.total) revenue from Orders O, Customers C where \
   O.cid = C.cid group by C.region"

(* The evolving base data an update stream is drawn against: the live
   orders (so deletes always hit a present row) and the deleted edges of
   the chain (so re-inserts restore it). *)
type stream = {
  rng : Random.State.t;
  buyers : int;
  target : int;  (* |Orders| the stream keeps steady *)
  mutable live : order array;
  mutable n_live : int;
  mutable next_oid : int;
  chain : int;
  mutable cut : int list;  (* deleted edges, by source node *)
}

let stream rng (s : shop) ~chain =
  let n = Array.length s.orders in
  {
    rng;
    buyers = buyers (Array.length s.customers);
    target = n;
    live = Array.copy s.orders;
    n_live = n;
    next_oid = n;
    chain;
    cut = [];
  }

let orders_schema = Schema.make (List.assoc "Orders" schemas)
let edge_schema = Schema.make [ "s"; "t" ]
let tuple schema vs = Tuple.make schema (Array.of_list vs)

type batch = (string * (Tuple.t * int) list) list

let insert st =
  let o = order st.rng st.next_oid ~buyers:st.buyers in
  st.next_oid <- st.next_oid + 1;
  if st.n_live = Array.length st.live then
    st.live <- Array.append st.live (Array.make st.n_live o);
  st.live.(st.n_live) <- o;
  st.n_live <- st.n_live + 1;
  (tuple orders_schema (order_row o), 1)

let delete st =
  let k = int st.rng st.n_live in
  let o = st.live.(k) in
  st.n_live <- st.n_live - 1;
  st.live.(k) <- st.live.(st.n_live);
  (tuple orders_schema (order_row o), -1)

(* Each row inserts while |Orders| is below the target, deletes while it is
   above, and tosses a coin at the target, so inserts and deletes come in
   equal shares and mix within a batch. Deletes are drawn before inserts:
   no row is inserted and deleted in one batch. *)
let order_batch st =
  let count = ref st.n_live in
  let signs =
    List.init (1 + int st.rng 8) (fun _ ->
        let ins =
          if !count = st.target then Random.State.bool st.rng
          else !count < st.target
        in
        count := (if ins then !count + 1 else !count - 1);
        ins)
  in
  let n_del = List.length (List.filter not signs) in
  let dels = List.init n_del (fun _ -> delete st) in
  dels @ List.init (List.length signs - n_del) (fun _ -> insert st)

(* Cut a live edge, or restore a cut one; at most two are cut at once, so
   the chain stays long and DRed has real work on every edge batch. *)
let edge_change st =
  let restore =
    match st.cut with
    | [] -> false
    | [ _ ] -> Random.State.bool st.rng
    | _ -> true
  in
  if restore then begin
    let i = List.nth st.cut (int st.rng (List.length st.cut)) in
    st.cut <- List.filter (( <> ) i) st.cut;
    (tuple edge_schema [ V.Int i; V.Int (i + 1) ], 1)
  end
  else begin
    let rec draw () =
      let i = int st.rng st.chain in
      if List.mem i st.cut then draw () else i
    in
    let i = draw () in
    st.cut <- i :: st.cut;
    (tuple edge_schema [ V.Int i; V.Int (i + 1) ], -1)
  end

(* Four order batches of 1-8 rows, then one edge batch: an exact 80/20. *)
let ivm_batch st i : batch =
  if i mod 5 = 4 then [ ("P", [ edge_change st ]) ]
  else [ ("Orders", order_batch st) ]
