(* Observability tests: the sinks render the plan engine's trace spans
   ([Exec.spans_of_stats]) in forms that parse and nest, hostile strings
   survive them, and evaluation errors name their collection. *)

open Arc_core.Ast
open Arc_core.Build
module V = Arc_value.Value
module Relation = Arc_relation.Relation
module Database = Arc_relation.Database
module Eval = Arc_engine.Eval
module Exec = Arc_engine.Exec
module Obs = Arc_obs.Obs
module Sink = Arc_obs.Sink
module Json = Arc_obs.Json
module Data = Arc_catalog.Data

let i = V.int

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec at k = k + nl <= hl && (String.sub haystack k nl = needle || at (k + 1)) in
  nl = 0 || at 0

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

let chain n =
  Database.of_list
    [
      ( "P",
        Relation.of_rows [ "s"; "t" ]
          (List.init n (fun k -> [ V.Int k; V.Int (k + 1) ])) );
    ]

let eq16 = { defs = Data.eq16_defs; main = Coll Data.eq16_main }

(* Runs a program on the plan engine with per-node actuals on and renders
   them as spans, as [arc trace] does. *)
let plan_spans ~db prog =
  let ctx, _, optimized, _ = Exec.compile ~db prog in
  let stats = Arc_plan.Ir.fresh_stats () in
  ignore (Exec.exec_program ~stats ctx optimized);
  Exec.spans_of_stats optimized stats

(* the spans a recursive plan trace must carry *)
let recursive_span_names =
  [ "fixpoint:seminaive"; "iteration"; "collection:Q"; "scan" ]

(* the JSONL sink parses line by line and spans nest correctly *)
let jsonl_roundtrip () =
  let out = Sink.jsonl (plan_spans ~db:(chain 6) eq16) in
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
  (* the tree contains the spans of a recursive plan *)
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
    recursive_span_names

(* pretty sink shows the span names and chrome sink is one valid JSON doc *)
let sinks_smoke () =
  let spans = plan_spans ~db:(chain 6) eq16 in
  let pretty = Sink.pretty spans in
  List.iter
    (fun needle ->
      if not (contains ~needle pretty) then
        Alcotest.failf "pretty output lacks %S:\n%s" needle pretty)
    ("rows=" :: recursive_span_names);
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
  let inner =
    {
      Obs.id = 1;
      parent = Some 0;
      name = "inner,comma";
      start_ns = 10L;
      duration_ns = 5L;
      attrs = [ ("n", Obs.Int 3) ];
      children = [];
    }
  in
  let outer =
    {
      Obs.id = 0;
      parent = None;
      name = "outer \"op\"\nline2";
      start_ns = 0L;
      duration_ns = 20L;
      attrs =
        [
          ("note", Obs.Str "it's \"quoted\"\n\ttab \xe2\x9a\xa0");
          ("caf\xc3\xa9", Obs.Str "\x01control\x7f");
        ];
      children = [ inner ];
    }
  in
  let spans = [ outer ] in
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
          Alcotest.test_case "error messages name the collection" `Quick
            error_context;
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
