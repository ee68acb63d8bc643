(* Relation substrate tests: schemas, tuples, bag/set relations, bag ops. *)

module V = Arc_value.Value
module Schema = Arc_relation.Schema
module Tuple = Arc_relation.Tuple
module Relation = Arc_relation.Relation
module Database = Arc_relation.Database

let i = V.int

let schema_basics () =
  let s = Schema.make [ "A"; "B"; "C" ] in
  Alcotest.(check int) "arity" 3 (Schema.arity s);
  Alcotest.(check int) "index" 1 (Schema.index s "B");
  Alcotest.(check bool) "mem" true (Schema.mem s "C");
  Alcotest.(check bool) "not mem" false (Schema.mem s "D");
  Alcotest.check_raises "duplicate" (Schema.Duplicate_attribute "A") (fun () ->
      ignore (Schema.make [ "A"; "A" ]));
  Alcotest.check_raises "unknown" (Schema.Unknown_attribute "Z") (fun () ->
      ignore (Schema.index s "Z"))

let schema_names_vs_order () =
  let s1 = Schema.make [ "A"; "B" ] and s2 = Schema.make [ "B"; "A" ] in
  Alcotest.(check bool) "equal_names ignores order" true
    (Schema.equal_names s1 s2);
  Alcotest.(check bool) "equal respects order" false (Schema.equal s1 s2)

let tuple_access () =
  let t = Tuple.of_alist [ ("A", i 1); ("B", i 2) ] in
  Alcotest.(check bool) "get" true (V.equal (Tuple.get t "B") (i 2));
  let p = Tuple.project t [ "B" ] in
  Alcotest.(check int) "projected arity" 1 (Schema.arity (Tuple.schema p));
  let t2 = Tuple.of_alist [ ("B", i 2); ("A", i 1) ] in
  Alcotest.(check bool) "name-based equality" true (Tuple.equal t t2)

let rel_dedup () =
  let r = Relation.of_rows [ "A" ] [ [ i 1 ]; [ i 1 ]; [ i 2 ] ] in
  Alcotest.(check int) "bag card" 3 (Relation.cardinality r);
  Alcotest.(check int) "set card" 2 (Relation.cardinality (Relation.dedup r))

(* regression: the dedup key must be a canonical (self-delimiting) tuple
   serialization — string values chosen so that a naive concatenation of
   printed values would collide across attribute boundaries *)
let rel_dedup_collisions () =
  let s = V.str in
  let r =
    Relation.of_rows [ "A"; "B" ]
      [
        [ s "x'|B='y"; s "z" ];
        [ s "x"; s "y'|B='z" ];
        [ s "ab"; s "c" ];
        [ s "a"; s "bc" ];
        [ s "a;b"; s "c" ];
        [ s "a"; s "b;c" ];
      ]
  in
  Alcotest.(check int) "no cross-attribute collisions" 6
    (Relation.cardinality (Relation.dedup r));
  (* numeric cross-type equality is still respected: Int 1 = Float 1.0 *)
  let n =
    Relation.of_rows [ "A" ] [ [ V.Int 1 ]; [ V.Float 1.0 ]; [ V.Float 1.5 ] ]
  in
  Alcotest.(check int) "Int 1 and Float 1.0 deduplicate" 2
    (Relation.cardinality (Relation.dedup n));
  (* and key agrees with tuple equality on attribute order *)
  let t1 = Tuple.of_alist [ ("A", i 1); ("B", i 2) ] in
  let t2 = Tuple.of_alist [ ("B", i 2); ("A", i 1) ] in
  Alcotest.(check string) "key is order-insensitive" (Tuple.key t1)
    (Tuple.key t2)

(* Int 2^53+1 and Float 2^53 compare equal through [float_of_int], but
   their canonical keys differ, so they are distinct rows. [Tuple.equal]
   says so whether or not the tuples have been hashed, and [dedup],
   [equal_set] and [equal_bag] all agree with it. *)
let tuple_equal_is_key_equality () =
  let ti = Tuple.of_alist [ ("a", V.Int 9007199254740993) ] in
  let tf = Tuple.of_alist [ ("a", V.Float 9007199254740992.) ] in
  Alcotest.(check bool) "distinct before hashing" false (Tuple.equal ti tf);
  let seen = Relation.distinct (Tuple.schema ti) in
  let inserted tp =
    let n = Relation.cardinality (Relation.contents seen) in
    Relation.insert seen tp;
    Relation.cardinality (Relation.contents seen) = n + 1
  in
  Alcotest.(check bool) "first is unseen" true (inserted ti);
  Alcotest.(check bool) "second is unseen" true (inserted tf);
  Alcotest.(check bool) "keys differ" true (Tuple.key ti <> Tuple.key tf);
  Alcotest.(check bool) "distinct after hashing" false (Tuple.equal ti tf);
  Alcotest.(check bool) "Int 1 = Float 1.0" true
    (Tuple.equal
       (Tuple.of_alist [ ("a", i 1) ])
       (Tuple.of_alist [ ("a", V.Float 1.0) ]));
  let rel rows = Relation.make (Tuple.schema ti) rows in
  let both = rel [ ti; tf ] in
  Alcotest.(check int) "dedup keeps both" 2
    (Relation.cardinality (Relation.dedup both));
  Alcotest.(check bool) "equal_set: the pair is not one row" false
    (Relation.equal_set (rel [ ti ]) (rel [ tf ]));
  Alcotest.(check bool) "equal_set ignores row order" true
    (Relation.equal_set both (rel [ tf; ti ]));
  Alcotest.(check bool) "equal_bag ignores row order" true
    (Relation.equal_bag both (rel [ tf; ti ]));
  Alcotest.(check bool) "equal_set sees both rows" false
    (Relation.equal_set both (rel [ ti; ti ]))

let rel_ops () =
  let r = Relation.of_rows [ "A" ] [ [ i 1 ]; [ i 2 ]; [ i 2 ] ] in
  let s = Relation.of_rows [ "A" ] [ [ i 2 ]; [ i 3 ] ] in
  Alcotest.(check int) "union all" 5
    (Relation.cardinality (Relation.union r s));
  (* bag minus: {1,2,2} - {2,3} = {1,2} *)
  Alcotest.(check int) "bag minus" 2
    (Relation.cardinality (Relation.minus r s));
  (* bag intersect: min multiplicities *)
  Alcotest.(check int) "bag intersect" 1
    (Relation.cardinality (Relation.intersect r s))

let rel_select () =
  let r = Relation.of_rows [ "A"; "B" ] [ [ i 1; i 2 ]; [ i 3; i 4 ] ] in
  let sel = Relation.select (fun t -> V.equal (Tuple.get t "A") (i 1)) r in
  Alcotest.(check int) "select" 1 (Relation.cardinality sel)

let rel_equalities () =
  let r1 = Relation.of_rows [ "A" ] [ [ i 1 ]; [ i 1 ]; [ i 2 ] ] in
  let r2 = Relation.of_rows [ "A" ] [ [ i 2 ]; [ i 1 ] ] in
  Alcotest.(check bool) "set equal" true (Relation.equal_set r1 r2);
  Alcotest.(check bool) "bag not equal" false (Relation.equal_bag r1 r2);
  Alcotest.(check bool) "bag equal to itself shuffled" true
    (Relation.equal_bag r1
       (Relation.of_rows [ "A" ] [ [ i 2 ]; [ i 1 ]; [ i 1 ] ]))

let rel_errors () =
  Alcotest.(check bool) "row arity mismatch raises" true
    (try
       ignore (Relation.of_rows [ "A" ] [ [ i 1; i 2 ] ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "union schema mismatch raises" true
    (try
       ignore
         (Relation.union
            (Relation.of_rows [ "A" ] [])
            (Relation.of_rows [ "B" ] []));
       false
     with Invalid_argument _ -> true);
  (* rows must have the relation's attribute order; a structurally equal
     schema built separately is accepted *)
  let ab = Schema.make [ "A"; "B" ] and ba = Schema.make [ "B"; "A" ] in
  Alcotest.check_raises "make: other attribute order raises"
    (Invalid_argument "Relation.make: tuple schema mismatch") (fun () ->
      ignore (Relation.make ab [ Tuple.make ba [| i 2; i 1 |] ]));
  Alcotest.check_raises "add: other attribute order raises"
    (Invalid_argument "Relation.add: tuple schema mismatch") (fun () ->
      ignore (Relation.add (Relation.make ab []) (Tuple.make ba [| i 2; i 1 |])));
  Alcotest.(check int) "make: equal schema accepted" 1
    (Relation.cardinality
       (Relation.make ab [ Tuple.make (Schema.make [ "A"; "B" ]) [| i 1; i 2 |] ]))

let database () =
  let db =
    Database.of_list [ ("R", Relation.of_rows [ "A" ] [ [ i 1 ] ]) ]
  in
  Alcotest.(check bool) "mem" true (Database.mem db "R");
  Alcotest.(check bool) "find" true
    (Relation.cardinality (Database.find db "R") = 1);
  Alcotest.check_raises "unknown" (Database.Unknown_relation "Z") (fun () ->
      ignore (Database.find db "Z"));
  Alcotest.(check (list string)) "names" [ "R" ] (Database.names db)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let table_render () =
  let r = Relation.of_rows [ "A"; "B" ] [ [ i 1; V.Str "x" ] ] in
  let tbl = Relation.to_table r in
  Alcotest.(check bool) "mentions header and row count" true
    (contains tbl "| A " && contains tbl "(1 row(s))");
  let nullary = Relation.make (Schema.make []) [] in
  Alcotest.(check bool) "nullary rendering" true
    (contains (Relation.to_table nullary) "nullary")

let csv_roundtrip () =
  let check_rt name r =
    let r' = Arc_relation.Csv.read ~name:"R" (Arc_relation.Csv.write r) in
    Alcotest.(check bool) (name ^ ": schema") true
      (Schema.equal (Relation.schema r) (Relation.schema r'));
    Alcotest.(check bool) (name ^ ": rows") true (Relation.equal_bag r r')
  in
  check_rt "adversarial values"
    (Relation.of_rows [ "A"; "B"; "C" ]
       [
         [ i 1; V.Str "plain"; V.Null ];
         [ i (-3); V.Str "comma, inside"; V.Bool true ];
         [ V.Float 2.5; V.Str "quote \" and 'tick'"; V.Bool false ];
         [ V.Float 1e-7; V.Str "null"; V.Null ];
         [ V.Float 1e20; V.Str ""; V.Str "line\nbreak" ];
         [ V.Int 0; V.Str "123"; V.Str "true" ];
       ]);
  check_rt "nasty attribute names"
    (Relation.of_rows [ "a,b"; "with \"quote\""; "null" ] [ [ i 1; i 2; i 3 ] ]);
  check_rt "empty relation" (Relation.of_rows [ "A" ] []);
  check_rt "nullary with rows"
    (Relation.make (Schema.make []) [ Tuple.make (Schema.make []) [||] ]);
  (* the quoted string "null" must stay a string, the bare marker a NULL *)
  let r = Arc_relation.Csv.read "A,B\n\"null\",null\n" in
  let tp = List.hd (Relation.tuples r) in
  Alcotest.(check bool) "quoted null is a string" true
    (Tuple.get tp "A" = V.Str "null");
  Alcotest.(check bool) "bare null is NULL" true (V.is_null (Tuple.get tp "B"));
  Alcotest.check_raises "bare string rejected"
    (Arc_relation.Csv.Csv_error "malformed bare field \"abc\" (strings must be quoted)")
    (fun () -> ignore (Arc_relation.Csv.read "A\nabc\n"));
  Alcotest.check_raises "ragged row rejected"
    (Arc_relation.Csv.Csv_error "row has 2 field(s), header has 1")
    (fun () -> ignore (Arc_relation.Csv.read "A\n1,2\n"))

(* properties *)
let gen_rel =
  QCheck.make
    ~print:(fun r -> Relation.to_table r)
    QCheck.Gen.(
      let* n = int_bound 8 in
      let* rows =
        list_size (return n)
          (let* a = int_bound 4 in
           let* b = int_bound 4 in
           return [ V.Int a; V.Int b ])
      in
      return (Relation.of_rows [ "A"; "B" ] rows))

let prop_dedup_idempotent =
  QCheck.Test.make ~name:"dedup idempotent" ~count:200 gen_rel (fun r ->
      Relation.equal_bag (Relation.dedup r) (Relation.dedup (Relation.dedup r)))

let prop_union_card =
  QCheck.Test.make ~name:"bag union cardinality adds" ~count:200
    (QCheck.pair gen_rel gen_rel) (fun (r, s) ->
      Relation.cardinality (Relation.union r s)
      = Relation.cardinality r + Relation.cardinality s)

let prop_minus_then_union =
  QCheck.Test.make ~name:"(r-s) card = r card - intersect card" ~count:200
    (QCheck.pair gen_rel gen_rel) (fun (r, s) ->
      Relation.cardinality (Relation.minus r s)
      = Relation.cardinality r - Relation.cardinality (Relation.intersect r s))

(* signed deltas: exact bag updates, canonical-key matching *)

let rel_apply_delta () =
  let r = Relation.of_rows [ "A" ] [ [ i 1 ]; [ i 1 ]; [ i 2 ] ] in
  let t v = Tuple.make (Relation.schema r) [| v |] in
  let r' =
    Relation.apply_delta r [ (t (i 1), -1); (t (i 3), 2); (t (i 2), -1) ]
  in
  Alcotest.(check bool) "delta applied" true
    (Relation.equal_bag r'
       (Relation.of_rows [ "A" ] [ [ i 1 ]; [ i 3 ]; [ i 3 ] ]));
  Alcotest.check_raises "underflow is an error"
    (Invalid_argument "Relation.apply_delta: delete exceeds multiplicity")
    (fun () -> ignore (Relation.apply_delta r [ (t (i 2), -2) ]));
  (* Int/Float unify under the canonical key, as in dedup/grouping *)
  let r'' = Relation.apply_delta r [ (t (V.float 2.0), -1) ] in
  Alcotest.(check int) "Float 2.0 deletes Int 2" 2 (Relation.cardinality r'')

(* NULL deletes NULL under the canonical key — the 2VL/3VL distinction is
   about predicate evaluation, not identity, so both conventions share
   this behavior *)
let rel_delta_nulls () =
  let r = Relation.of_rows [ "A" ] [ [ V.Null ]; [ i 1 ] ] in
  let t v = Tuple.make (Relation.schema r) [| v |] in
  let r' = Relation.apply_delta r [ (t V.Null, -1) ] in
  Alcotest.(check bool) "NULL row deleted" true
    (Relation.equal_bag r' (Relation.of_rows [ "A" ] [ [ i 1 ] ]));
  let d = Relation.diff_signed r r' in
  Alcotest.(check int) "diff sees the NULL deletion" 1 (List.length d);
  (match d with
  | [ (tp, n) ] ->
      Alcotest.(check int) "deletion sign" (-1) n;
      Alcotest.(check bool) "NULL representative" true
        (V.equal (Tuple.get tp "A") V.Null)
  | _ -> Alcotest.fail "expected exactly one entry");
  Alcotest.(check bool) "apply of diff reproduces" true
    (Relation.equal_bag r' (Relation.apply_delta r d))

let prop_diff_then_apply =
  QCheck.Test.make ~name:"apply_delta (diff_signed r s) r ~ s" ~count:300
    (QCheck.pair gen_rel gen_rel) (fun (r, s) ->
      Relation.equal_bag s (Relation.apply_delta r (Relation.diff_signed r s)))

let prop_delta_inverse =
  QCheck.Test.make ~name:"inverse delta restores the original" ~count:300
    (QCheck.pair gen_rel gen_rel) (fun (r, s) ->
      let d = Relation.diff_signed r s in
      let s' = Relation.apply_delta r d in
      Relation.equal_bag r
        (Relation.apply_delta s' (List.map (fun (tp, n) -> (tp, -n)) d)))

(* Tuple order is name-based: the positional walk over a shared schema
   and the walk across two attribute orders agree with comparing the
   cells attribute by attribute in sorted-name order. *)
let prop_compare_name_based =
  let v =
    QCheck.Gen.(map (fun k -> if k = 0 then V.Null else V.Int k) (int_bound 3))
  in
  QCheck.Test.make ~name:"tuple compare is name-based" ~count:300
    (QCheck.make QCheck.Gen.(quad v v v v))
    (fun (a, b, c, d) ->
      let ab x y = Tuple.of_alist [ ("A", x); ("B", y) ]
      and ba x y = Tuple.of_alist [ ("B", y); ("A", x) ] in
      let expect =
        match V.compare a c with 0 -> V.compare b d | k -> k
      in
      let sign k = compare k 0 in
      List.for_all
        (fun (t1, t2) -> sign (Tuple.compare t1 t2) = sign expect)
        [ (ab a b, ab c d); (ba a b, ab c d); (ab a b, ba c d); (ba a b, ba c d) ]
      && Tuple.equal (ab a b) (ba c d) = (Tuple.compare (ab a b) (ab c d) = 0))

(* Persistence of the shared append buffer. [r0] is built by appends, so
   it is the newest version of a buffer with spare capacity: the first
   derivation from it appends in place, and the second must not overwrite
   the first's rows. Every result is checked, row for row, against a list
   model, after both derivations exist; [r0] itself never changes. *)
let gen_persistence =
  let row =
    QCheck.Gen.(
      map2 (fun a b -> [ V.Int a; V.Int b ]) (int_bound 4) (int_bound 4))
  in
  let rows = QCheck.Gen.(list_size (int_bound 6) row) in
  QCheck.make
    ~print:(fun (chunks, a, b, _) ->
      Printf.sprintf "chunks=%d |a|=%d |b|=%d" (List.length chunks)
        (List.length a) (List.length b))
    QCheck.Gen.(quad (list_size (int_range 1 4) rows) rows rows bool)

let prop_shared_prefix =
  QCheck.Test.make ~name:"derivations from a shared prefix stay apart"
    ~count:300 gen_persistence (fun (chunks, a, b, flip_b) ->
      let rel ?(attrs = [ "A"; "B" ]) rows = Relation.of_rows attrs rows in
      let r0 =
        List.fold_left
          (fun acc c -> Relation.union acc (rel c))
          (Relation.empty [ "A"; "B" ]) chunks
      in
      let model0 = List.concat chunks in
      let card0 = Relation.cardinality r0 and tuples0 = Relation.tuples r0 in
      (* [b] may come over the other attribute order: union aligns it *)
      let rb =
        if flip_b then rel ~attrs:[ "B"; "A" ] (List.map List.rev b)
        else rel b
      in
      let row_of tp = [ Tuple.get tp "A"; Tuple.get tp "B" ] in
      let matches model r =
        List.length model = Relation.cardinality r
        && List.for_all2
             (fun m tp -> List.for_all2 V.equal m (row_of tp))
             model (Relation.tuples r)
      in
      let unchanged () =
        Relation.cardinality r0 = card0
        && List.for_all2 ( == ) tuples0 (Relation.tuples r0)
      in
      (* union *)
      let ua = Relation.union r0 (rel a) in
      let ub = Relation.union r0 rb in
      let unions_ok = matches (model0 @ a) ua && matches (model0 @ b) ub in
      (* add, one row at a time on each side *)
      let tuple vs = Relation.get (rel [ vs ]) 0 in
      let adds rows =
        List.fold_left (fun r vs -> Relation.add r (tuple vs)) r0 rows
      in
      let aa = adds a in
      let ab = adds b in
      let adds_ok = matches (model0 @ a) aa && matches (model0 @ b) ab in
      (* apply_delta: [a] inserted / [b] inserted and the first row of
         [r0] deleted (deletion removes the first equal row) *)
      let ins rows = List.map (fun vs -> (tuple vs, 1)) rows in
      let da = Relation.apply_delta r0 (ins a) in
      let db =
        Relation.apply_delta r0
          ((if card0 = 0 then [] else [ (Relation.get r0 0, -1) ]) @ ins b)
      in
      let deltas_ok =
        matches (model0 @ a) da
        && matches ((match model0 with [] -> [] | _ :: rest -> rest) @ b) db
      in
      (* and every result still holds once all of them exist *)
      unions_ok && adds_ok && deltas_ok
      && matches (model0 @ a) ua && matches (model0 @ a) aa
      && matches (model0 @ a) da && unchanged ())

(* Persistence of a fixpoint's accumulator ([Relation.distinct]): each
   round inserts rows (repeats and rows of earlier rounds included), and
   hands out the accumulated relation and the round's delta, the slice
   behind the previous version. A reader may append to a version it was
   handed; the accumulator must then move to a buffer of its own rather
   than write over the reader's rows. After the last round, every version
   and every delta handed out still has exactly the rows it had, checked
   against a list model of first occurrences. *)
let prop_distinct_versions =
  let row = QCheck.Gen.(pair (int_bound 5) (int_bound 5)) in
  let round = QCheck.Gen.(pair (list_size (int_bound 12) row) (int_bound 2)) in
  QCheck.Test.make ~name:"fixpoint versions and deltas keep their rows"
    ~count:300
    (QCheck.make
       ~print:(fun rounds ->
         String.concat " | "
           (List.map
              (fun (rows, foreign) ->
                Printf.sprintf "%s (append to %d)"
                  (String.concat ","
                     (List.map (fun (a, b) -> Printf.sprintf "%d%d" a b) rows))
                  foreign)
              rounds))
       QCheck.Gen.(list_size (int_bound 8) round))
    (fun rounds ->
      let schema = Arc_relation.Schema.make [ "A"; "B" ] in
      let tuple (a, b) = Tuple.make schema [| i a; i b |] in
      let pairs r =
        List.map
          (fun tp ->
            match Tuple.values tp with
            | [ V.Int a; V.Int b ] -> (a, b)
            | _ -> (-1, -1))
          (Relation.tuples r)
      in
      let acc = Relation.distinct schema in
      let model = ref [] and handed = ref [] in
      List.iter
        (fun (rows, foreign) ->
          let before = Relation.contents acc in
          let fresh = ref [] in
          List.iter
            (fun p ->
              Relation.insert acc (tuple p);
              if not (List.mem p !model || List.mem p !fresh) then
                fresh := !fresh @ [ p ])
            rows;
          model := !model @ !fresh;
          let all = Relation.contents acc in
          let delta = Relation.drop (Relation.cardinality before) all in
          handed := (all, !model) :: (delta, !fresh) :: !handed;
          (* a reader appends to the delta or to the accumulated version *)
          let extra = Relation.of_array schema [| tuple (9, 9) |] in
          match foreign with
          | 1 ->
              handed :=
                (Relation.union delta extra, !fresh @ [ (9, 9) ]) :: !handed
          | 2 ->
              handed :=
                (Relation.union all extra, !model @ [ (9, 9) ]) :: !handed
          | _ -> ())
        rounds;
      List.for_all (fun (r, m) -> pairs r = m) !handed
      && pairs (Relation.contents acc) = !model)

(* The render before its direct-to-buffer rewrite, kept as the reference
   that [Relation.sort] and [Csv.write] must match byte for byte: a stable
   sort by [Tuple.compare], and one string per cell. *)
module Old_render = struct
  let sort r =
    let a = Array.of_list (Relation.tuples r) in
    Array.stable_sort Tuple.compare a;
    Relation.make (Relation.schema r) (Array.to_list a)

  let quote s =
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf

  let plain_header s =
    s <> ""
    && (match s.[0] with
       | 'a' .. 'z' | 'A' .. 'Z' | '_' | '$' -> true
       | _ -> false)
    && String.for_all
         (function
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true
           | _ -> false)
         s
    && not (List.mem (String.lowercase_ascii s) [ "null"; "true"; "false" ])

  let header_field s = if plain_header s then s else quote s

  let value_field = function
    | V.Null -> "null"
    | V.Int x -> string_of_int x
    | V.Float _ as v -> V.to_string v
    | V.Bool b -> string_of_bool b
    | V.Str s -> quote s

  let write rel =
    let attrs = Schema.attrs (Relation.schema rel) in
    let arity = List.length attrs in
    let buf = Buffer.create 256 in
    Buffer.add_string buf (String.concat "," (List.map header_field attrs));
    Buffer.add_char buf '\n';
    Relation.iter
      (fun tp ->
        for i = 0 to arity - 1 do
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (value_field (Tuple.cell tp i))
        done;
        Buffer.add_char buf '\n')
      rel;
    Buffer.contents buf
end

(* Relations for the render property. Columns are all-[Int] (narrow,
   wide, or spanning [min_int]..[max_int], whose range overflows) or mixed:
   NaNs of both signs, -0.0, 1e15, [Int 2] against [Float 2.0] (ties the
   stable sort must keep in row order), NULLs, and strings with quotes,
   commas and newlines. Attribute lists come in any order, and half the
   relations are a union with a relation over the same names in another
   order, whose rows [union] realigns. Sizes straddle the radix cut-off
   of 512 rows. *)
let gen_render =
  let open QCheck.Gen in
  let narrow = map V.int (int_range (-3) 3)
  and wide = map V.int (int_range (-(1 lsl 40)) (1 lsl 40))
  and extreme =
    frequency
      [ (1, return (V.Int min_int)); (1, return (V.Int max_int));
        (2, map V.int int) ]
  and mixed =
    frequency
      [
        (2, map V.int (int_range 0 3));
        (2, oneofl [ V.Float 2.0; V.Float 0.5; V.Float (-0.0); V.Float 0.0 ]);
        ( 1,
          oneofl
            [ V.Float Float.nan; V.Float (Float.neg Float.nan); V.Float 1e15;
              V.Float (-1e15); V.Int max_int; V.Int min_int ] );
        (1, return V.Null);
        (1, map V.bool bool);
        ( 2,
          oneofl
            (List.map V.str
               [ ""; "a"; "a,b"; "say \"hi\""; "two\nlines"; "\""; "null" ]) );
      ]
  in
  let* all_int = bool in
  let* cols =
    list_repeat 3
      (oneofl (if all_int then [ narrow; wide; extreme ]
               else [ narrow; wide; extreme; mixed; mixed ]))
  in
  let row = flatten_l cols in
  let* n =
    frequency [ (1, int_bound 8); (1, int_range 60 200); (1, int_range 450 600) ]
  in
  let* rows = list_repeat n row in
  let* attrs = shuffle_l [ "a"; "b"; "c" ] in
  let* other = shuffle_l [ "a"; "b"; "c" ] in
  let* more = list_size (int_bound 80) row in
  let* realign = bool in
  let r = Relation.of_rows attrs rows in
  return
    (if realign then Relation.union r (Relation.of_rows other more) else r)

let prop_render_matches_old =
  QCheck.Test.make ~name:"sort and csv write match the old render"
    ~count:400
    (QCheck.make ~print:Relation.to_table gen_render)
    (fun r ->
      let old_sorted = Old_render.sort r and sorted = Relation.sort r in
      let csv = Arc_relation.Csv.write sorted in
      (* physically the same rows in the same order: the sort is stable *)
      List.for_all2 ( == ) (Relation.tuples old_sorted) (Relation.tuples sorted)
      && csv = Old_render.write old_sorted
      && Arc_relation.Csv.write (Arc_relation.Csv.read csv) = csv)

let () =
  Alcotest.run "arc_relation"
    [
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick schema_basics;
          Alcotest.test_case "names vs order" `Quick schema_names_vs_order;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "access" `Quick tuple_access;
          Alcotest.test_case "equality is key equality" `Quick
            tuple_equal_is_key_equality;
        ] );
      ( "relation",
        [
          Alcotest.test_case "dedup" `Quick rel_dedup;
          Alcotest.test_case "dedup collision regression" `Quick
            rel_dedup_collisions;
          Alcotest.test_case "bag ops" `Quick rel_ops;
          Alcotest.test_case "select" `Quick rel_select;
          Alcotest.test_case "set/bag equality" `Quick rel_equalities;
          Alcotest.test_case "errors" `Quick rel_errors;
          Alcotest.test_case "table rendering" `Quick table_render;
          Alcotest.test_case "csv roundtrip" `Quick csv_roundtrip;
          Alcotest.test_case "apply_delta" `Quick rel_apply_delta;
          Alcotest.test_case "signed deltas and NULL" `Quick rel_delta_nulls;
        ] );
      ("database", [ Alcotest.test_case "basics" `Quick database ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_dedup_idempotent;
            prop_union_card;
            prop_minus_then_union;
            prop_diff_then_apply;
            prop_delta_inverse;
            prop_shared_prefix;
            prop_distinct_versions;
            prop_compare_name_based;
            prop_render_matches_old;
          ] );
    ]
