(* Observability tests: tracing must never change evaluation results, the
   collected counters must obey basic invariants, and the machine-readable
   sinks must round-trip. *)

open Arc_core.Ast
open Arc_core.Build
module V = Arc_value.Value
module Relation = Arc_relation.Relation
module Database = Arc_relation.Database
module Eval = Arc_engine.Eval
module Obs = Arc_obs.Obs
module Sink = Arc_obs.Sink
module Json = Arc_obs.Json
module Data = Arc_catalog.Data

let i = V.int

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec at k = k + nl <= hl && (String.sub haystack k nl = needle || at (k + 1)) in
  nl = 0 || at 0

let check_rel ?(msg = "result") expected actual =
  if not (Relation.equal_bag (Relation.sort expected) (Relation.sort actual))
  then
    Alcotest.failf "%s:@.expected:@.%s@.actual:@.%s" msg
      (Relation.to_table (Relation.sort expected))
      (Relation.to_table (Relation.sort actual))

let db_rs =
  Database.of_list
    [
      ( "R",
        Relation.of_rows [ "A"; "B" ]
          [ [ i 1; i 10 ]; [ i 2; i 20 ]; [ i 3; i 30 ] ] );
      ( "S",
        Relation.of_rows [ "B"; "C" ]
          [ [ i 10; i 0 ]; [ i 20; i 5 ]; [ i 99; i 0 ] ] );
    ]

(* { Q(A) | ∃r ∈ R, s ∈ S [Q.A = r.A ∧ r.B = s.B ∧ s.C = 0] } *)
let join_query =
  coll "Q" [ "A" ]
    (exists
       [ bind "r" "R"; bind "s" "S" ]
       (conj
          [
            eq (attr "Q" "A") (attr "r" "A");
            eq (attr "r" "B") (attr "s" "B");
            eq (attr "s" "C") (cint 0);
          ]))

let chain n =
  Database.of_list
    [
      ( "P",
        Relation.of_rows [ "s"; "t" ]
          (List.init n (fun k -> [ V.Int k; V.Int (k + 1) ])) );
    ]

let eq16 = { defs = Data.eq16_defs; main = Coll Data.eq16_main }

(* (a) tracing is observationally transparent: the default path, an explicit
   null tracer, and a collecting tracer all produce the same relation *)
let tracing_preserves_results () =
  let baseline = Eval.run_rows ~db:db_rs (program join_query) in
  let with_null =
    Eval.run_rows ~tracer:Obs.null ~db:db_rs (program join_query)
  in
  let with_collector =
    Eval.run_rows ~tracer:(Obs.collector ()) ~db:db_rs (program join_query)
  in
  check_rel ~msg:"null tracer" baseline with_null;
  check_rel ~msg:"collecting tracer" baseline with_collector;
  (* same, through a recursive program *)
  let db = chain 8 in
  check_rel ~msg:"recursive, traced" (Eval.run_rows ~db eq16)
    (Eval.run_rows ~tracer:(Obs.collector ()) ~db eq16)

(* (b) counter invariants on a plain join query *)
let counter_invariants () =
  let tracer = Obs.collector () in
  ignore (Eval.run_rows ~tracer ~db:db_rs (program join_query));
  let spans = Obs.spans tracer in
  let scanned = Obs.counter_total spans "tuples_scanned" in
  let emitted = Obs.counter_total spans "rows_emitted" in
  let candidates = Obs.counter_total spans "candidates" in
  let survivors = Obs.counter_total spans "survivors" in
  if scanned <= 0 then Alcotest.failf "expected tuples_scanned > 0";
  if emitted > scanned then
    Alcotest.failf "emitted (%d) > scanned (%d)" emitted scanned;
  if survivors > candidates then
    Alcotest.failf "join survivors (%d) > candidates (%d)" survivors candidates

(* (b') the plan's indexed fixpoint runs no more rounds — and scans far
   fewer tuples — than the reference's naive one on the paper's
   transitive-closure program *)
let seminaive_beats_naive () =
  let db = chain 12 in
  let naive =
    let tracer = Obs.collector () in
    ignore (Eval.run_rows ~tracer ~db eq16);
    Obs.spans tracer
  in
  let indexed =
    let ctx, _, optimized, _ = Arc_engine.Exec.compile ~db eq16 in
    let stats = Arc_plan.Ir.fresh_stats () in
    ignore (Arc_engine.Exec.exec_program ~stats ctx optimized);
    Arc_engine.Exec.spans_of_stats optimized stats
  in
  let fixpoint spans name =
    match Obs.find_spans spans name with
    | [ fp ] -> fp
    | l -> Alcotest.failf "expected one %s span, got %d" name (List.length l)
  in
  let nfp = fixpoint naive "fixpoint:naive" in
  let ifp = fixpoint indexed "fixpoint:seminaive" in
  (* the reference counts every round as an iteration; the plan counts its
     seed apart, so its rounds are its children *)
  let n_rounds = Option.get (Obs.attr_int nfp "iterations") in
  let i_rounds = List.length ifp.Obs.children in
  if i_rounds > n_rounds then
    Alcotest.failf "indexed rounds (%d) > naive rounds (%d)" i_rounds n_rounds;
  let scanned = Obs.counter_total [ nfp ] "tuples_scanned" in
  let plan_scanned =
    List.fold_left
      (fun acc s -> acc + Option.value ~default:0 (Obs.attr_int s "rows"))
      0
      (Obs.find_spans indexed "scan")
  in
  if plan_scanned >= scanned then
    Alcotest.failf "the plan scanned no fewer tuples (%d) than naive (%d)"
      plan_scanned scanned;
  (* the deltas across all rounds add up to the closure: 12*13/2 *)
  let delta_sum spans =
    List.fold_left
      (fun acc (s : Obs.span) ->
        acc + Option.value ~default:0 (Obs.attr_int s "delta:A"))
      0
      (Obs.find_spans spans "seed" @ Obs.find_spans spans "iteration")
  in
  Alcotest.(check int) "indexed deltas sum to |closure|" 78 (delta_sum indexed);
  Alcotest.(check int) "naive deltas sum to |closure|" 78 (delta_sum naive)

(* (c) the JSONL sink parses line by line and spans nest correctly *)
let jsonl_roundtrip () =
  let tracer = Obs.collector () in
  ignore (Eval.run_rows ~tracer ~db:(chain 6) eq16);
  let out = Sink.jsonl (Obs.spans tracer) in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
  in
  if List.length lines < 5 then
    Alcotest.failf "expected a real trace, got %d lines" (List.length lines);
  let seen = Hashtbl.create 64 in
  List.iter
    (fun line ->
      match Json.parse line with
      | Error msg -> Alcotest.failf "unparsable JSONL line (%s): %s" msg line
      | Ok doc -> (
          let field k =
            match Json.member k doc with
            | Some v -> v
            | None -> Alcotest.failf "span without %S field: %s" k line
          in
          let id =
            match Json.to_int (field "id") with
            | Some id -> id
            | None -> Alcotest.failf "non-integer id: %s" line
          in
          if Hashtbl.mem seen id then Alcotest.failf "duplicate span id %d" id;
          (match field "name" with
          | Json.Str _ -> ()
          | _ -> Alcotest.failf "non-string name: %s" line);
          (match Json.to_int (field "dur_ns") with
          | Some d when d >= 0 -> ()
          | _ -> Alcotest.failf "bad dur_ns: %s" line);
          match field "parent" with
          | Json.Null -> Hashtbl.add seen id ()
          | Json.Int p ->
              (* preorder: every parent is emitted before its children *)
              if not (Hashtbl.mem seen p) then
                Alcotest.failf "span %d references unseen parent %d" id p;
              Hashtbl.add seen id ()
          | _ -> Alcotest.failf "bad parent field: %s" line))
    lines;
  (* the tree contains the spans the ISSUE promises for recursion *)
  let has name =
    List.exists
      (fun l ->
        match Json.parse l with
        | Ok doc -> Json.member "name" doc = Some (Json.Str name)
        | Error _ -> false)
      lines
  in
  List.iter
    (fun name ->
      if not (has name) then Alcotest.failf "no %S span in JSONL trace" name)
    [ "fixpoint:naive"; "iteration"; "collection:Q"; "scope" ]

(* pretty sink shows the span names and chrome sink is one valid JSON doc *)
let sinks_smoke () =
  let tracer = Obs.collector () in
  ignore (Eval.run_rows ~tracer ~db:db_rs (program join_query));
  let spans = Obs.spans tracer in
  let pretty = Sink.pretty spans in
  List.iter
    (fun needle ->
      if not (contains ~needle pretty) then
        Alcotest.failf "pretty output lacks %S:\n%s" needle pretty)
    [ "collection:Q"; "scope"; "rows_emitted" ];
  match Json.parse (Sink.chrome spans) with
  | Ok (Json.List (_ :: _)) -> ()
  | Ok _ -> Alcotest.fail "chrome trace is not a non-empty array"
  | Error msg -> Alcotest.failf "chrome trace unparsable: %s" msg

(* errors are attributed to the collection being evaluated *)
let error_context () =
  let bad =
    coll "Q" [ "A" ]
      (exists [ bind "r" "R" ] (eq (attr "Q" "A") (attr "r" "missing")))
  in
  match Eval.run_rows ~db:db_rs (program bad) with
  | _ -> Alcotest.fail "expected Eval_error"
  | exception Eval.Eval_error e ->
      let msg = Eval.error_to_string e in
      if not (contains ~needle:"in collection \"Q\"" msg) then
        Alcotest.failf "error lacks collection context: %s" msg

(* the JSON emitter/parser round-trips structured values *)
let json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a \"quoted\"\nline\twith\\escapes");
        ("n", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("z", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Obj [ ("k", Json.Str "v") ] ]);
      ]
  in
  (match Json.parse (Json.to_string v) with
  | Ok v' when v' = v -> ()
  | Ok _ -> Alcotest.fail "compact round-trip changed the value"
  | Error msg -> Alcotest.failf "compact round-trip failed: %s" msg);
  match Json.parse (Json.pretty v) with
  | Ok v' when v' = v -> ()
  | Ok _ -> Alcotest.fail "pretty round-trip changed the value"
  | Error msg -> Alcotest.failf "pretty round-trip failed: %s" msg

(* every string the fuzzer can generate — plus worse — survives a
   to_string/parse round-trip, byte for byte *)
let json_hostile_roundtrip () =
  let hostile =
    Arc_fuzz.Gen.str_pool
    @ [
        "\x00\x01\x1f";          (* C0 controls, escaped as \u00XX *)
        "\x7f";                  (* DEL, likewise *)
        "caf\xc3\xa9";           (* 2-byte UTF-8 *)
        "\xe2\x9a\xa0 warn";     (* 3-byte UTF-8 *)
        "\xf0\x9f\x98\x80";      (* 4-byte UTF-8 (astral) *)
        "back\\slash \"quote\"";
        "mixed\n\t\r\x0b\x0c";
      ]
  in
  List.iter
    (fun s ->
      let j = Json.Obj [ ("k", Json.Str s); (s, Json.Int 1) ] in
      match Json.parse (Json.to_string j) with
      | Ok j' when j' = j -> ()
      | Ok _ -> Alcotest.failf "round-trip changed %S" s
      | Error msg -> Alcotest.failf "round-trip of %S failed: %s" s msg)
    hostile

(* \u escapes: surrogate pairs decode to one astral code point; unpaired
   halves and malformed hex are rejected rather than smuggled through *)
let json_unicode_escapes () =
  (match Json.parse {|"\ud83d\ude00"|} with
  | Ok (Json.Str s) ->
      Alcotest.(check string) "surrogate pair decodes" "\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "surrogate pair parsed to a non-string"
  | Error msg -> Alcotest.failf "surrogate pair rejected: %s" msg);
  (match Json.parse {|"\u00e9"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "BMP escape" "\xc3\xa9" s
  | _ -> Alcotest.fail "BMP \\u escape failed");
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed input %s" bad)
    [
      {|"\ud83d"|};        (* unpaired high surrogate *)
      {|"\ud83dx"|};       (* high surrogate not followed by \u *)
      {|"\ude00"|};        (* unpaired low surrogate *)
      {|"\ud83d\u0041"|}; (* high surrogate followed by a non-low \u *)
      {|"\u12g4"|};        (* bad hex digit *)
      {|"\u12"|};          (* truncated *)
    ]

(* spans whose names and attributes contain newlines, quotes and raw UTF-8
   still produce machine-parsable chrome and JSONL output *)
let sinks_hostile_attrs () =
  let tracer = Obs.collector () in
  let h = Obs.enter tracer "outer \"op\"\nline2" in
  Obs.set h "note" (Obs.Str "it's \"quoted\"\n\ttab \xe2\x9a\xa0");
  Obs.set h "caf\xc3\xa9" (Obs.Str "\x01control\x7f");
  let inner = Obs.enter tracer "inner,comma" in
  Obs.set inner "n" (Obs.Int 3);
  Obs.leave tracer inner;
  Obs.leave tracer h;
  let spans = Obs.spans tracer in
  (match Json.parse (Sink.chrome spans) with
  | Ok (Json.List (_ :: _)) -> ()
  | Ok _ -> Alcotest.fail "chrome trace is not a non-empty array"
  | Error msg -> Alcotest.failf "chrome trace unparsable: %s" msg);
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Sink.jsonl spans))
  in
  Alcotest.(check int) "one JSONL line per span" 2 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Error msg -> Alcotest.failf "unparsable JSONL line (%s): %s" msg line
      | Ok doc -> (
          match Json.member "name" doc with
          | Some (Json.Str _) -> ()
          | _ -> Alcotest.failf "JSONL line lacks string name: %s" line))
    lines;
  (* the hostile attribute value survives the trip through JSONL intact *)
  let first = List.nth lines 0 in
  match Json.parse first with
  | Ok doc -> (
      match Json.member "attrs" doc with
      | Some (Json.Obj attrs) -> (
          match List.assoc_opt "note" attrs with
          | Some (Json.Str s) ->
              Alcotest.(check string) "attr round-trips"
                "it's \"quoted\"\n\ttab \xe2\x9a\xa0" s
          | _ -> Alcotest.fail "note attr missing from JSONL")
      | _ -> Alcotest.fail "attrs missing from JSONL")
  | Error msg -> Alcotest.failf "unparsable first line: %s" msg

let () =
  Alcotest.run "arc_obs"
    [
      ( "transparency",
        [
          Alcotest.test_case "tracing preserves results" `Quick
            tracing_preserves_results;
          Alcotest.test_case "error messages name the collection" `Quick
            error_context;
        ] );
      ( "counters",
        [
          Alcotest.test_case "emitted <= scanned, survivors <= candidates"
            `Quick counter_invariants;
          Alcotest.test_case "semi-naive <= naive on transitive closure"
            `Quick seminaive_beats_naive;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "JSONL parses and spans nest" `Quick
            jsonl_roundtrip;
          Alcotest.test_case "pretty and chrome sinks" `Quick sinks_smoke;
          Alcotest.test_case "JSON emitter/parser round-trip" `Quick
            json_roundtrip;
          Alcotest.test_case "hostile strings round-trip" `Quick
            json_hostile_roundtrip;
          Alcotest.test_case "unicode escapes and surrogate pairs" `Quick
            json_unicode_escapes;
          Alcotest.test_case "sinks survive hostile attributes" `Quick
            sinks_hostile_attrs;
        ] );
    ]
