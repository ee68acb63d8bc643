(** The differential oracle.

    A case passes when every observable agrees:

    - {b eval-vs-exec}: reference evaluator vs plan engine, under all 8
      convention combinations: the reference's naive fixpoint checks the
      plan engine's delta rules;
    - {b arc-roundtrip}: print (ASCII) → re-parse → structurally equal
      program;
    - {b sql-*}: where {!Arc_sql.Of_arc} supports the core, the printed SQL
      must re-parse, translate back, and evaluate bag-equal; and
      {!Arc_sql.Eval_sql} acts as a third engine on the statement;
    - {b trc-*} / {b datalog-*}: frontend-specific round-trips and
      cross-engine checks for generated TRC / Datalog cases.

    Runs are resource-governed ({!fuzz_budget}); a budget trip on either
    side of a comparison skips that comparison (recorded as a skip, never a
    divergence). Both-sides-rejected also agrees, matching the tier-1
    differential suite. *)

open Arc_core.Ast
module V = Arc_value.Value
module B3 = Arc_value.Bool3
module Conventions = Arc_value.Conventions
module Relation = Arc_relation.Relation
module Tuple = Arc_relation.Tuple
module Eval = Arc_engine.Eval
module Exec = Arc_engine.Exec
module Err = Arc_guard.Error
module Budget = Arc_guard.Budget
module Gov = Arc_guard.Gov
module Trc = Arc_trc.Trc

type outcome =
  | Bag of string list  (** sorted canonical tuple keys *)
  | Truth of B3.t
  | Failed of string  (** evaluation rejected the case (label is the kind) *)
  | Resource  (** budget exhausted — comparisons involving this are skipped *)

type divergence = {
  d_kind : string;  (** e.g. ["eval-vs-exec"], ["sql-roundtrip"] *)
  d_conv : string;  (** convention label, [""] when irrelevant *)
  d_detail : string;
}

let divergence_to_string d =
  if d.d_conv = "" then Printf.sprintf "[%s] %s" d.d_kind d.d_detail
  else Printf.sprintf "[%s @ %s] %s" d.d_kind d.d_conv d.d_detail

(* Deterministic (no wall clock) but bounded: runaway recursion and blowup
   joins trip a typed budget error instead of hanging the fuzzer. *)
let fuzz_budget =
  {
    Budget.timeout_ns = None;
    max_iterations = Some 300;
    max_rows = Some 50_000;
    max_bindings = Some 200_000;
    max_depth = Some 30;
  }

let kind_label : Err.kind -> string = function
  | Err.Unstratifiable _ -> "unstratifiable"
  | Err.Unbound_external _ -> "unbound-external"
  | Err.Unbound_abstract _ -> "unbound-abstract"
  | Err.Unknown_relation _ -> "unknown-relation"
  | Err.Head_unassigned _ -> "head-unassigned"
  | Err.Budget_exceeded _ -> "budget"
  | Err.Cancelled -> "cancelled"
  | Err.External_failure _ -> "external"
  | Err.Msg m -> "error: " ^ m

let bag_of r = Bag (List.sort compare (List.map Tuple.key (Relation.tuples r)))

let outcome_of f =
  match f () with
  | Eval.Rows r -> bag_of r
  | Eval.Truth t -> Truth t
  | exception Eval.Eval_error e -> (
      match e.Err.kind with
      | Err.Budget_exceeded _ | Err.Cancelled -> Resource
      | k -> Failed (kind_label k))

let outcome_to_string = function
  | Bag keys ->
      Printf.sprintf "bag of %d rows [%s]" (List.length keys)
        (String.concat "; " keys)
  | Truth t -> "truth " ^ B3.to_string t
  | Failed m -> "rejected (" ^ m ^ ")"
  | Resource -> "budget exhausted"

(* Resource on either side skips the comparison; both-rejected agrees. *)
let agree a b =
  match (a, b) with
  | Resource, _ | _, Resource -> true
  | Failed _, Failed _ -> true
  | x, y -> x = y

let guard () = Gov.make ~on_limit:`Fail fuzz_budget

let run_eval ?(conv = Conventions.sql_set) ~db prog =
  outcome_of (fun () -> Eval.run ~conv ~guard:(guard ()) ~db prog)

let run_exec ?(conv = Conventions.sql_set) ~db prog =
  outcome_of (fun () -> Exec.run ~conv ~guard:(guard ()) ~db prog)

(* every convention combination: 2 collection × 2 null-logic × 2 agg-empty *)
let all_conventions : (string * Conventions.t) list =
  List.concat_map
    (fun (cs, cn) ->
      List.concat_map
        (fun (nl, nn) ->
          List.map
            (fun (ae, an) ->
              ( Printf.sprintf "%s/%s/%s" cn nn an,
                Conventions.
                  { collection = cs; null_logic = nl; agg_empty = ae } ))
            [
              (Conventions.Agg_null, "agg_null");
              (Conventions.Agg_zero, "agg_zero");
            ])
        [ (Conventions.Two_valued, "2vl"); (Conventions.Three_valued, "3vl") ])
    [ (Conventions.Set, "set"); (Conventions.Bag, "bag") ]

(* ------------------------------------------------------------------ *)
(* Check 1: reference evaluator vs plan engine                         *)
(* ------------------------------------------------------------------ *)

let check_engines (case : Case.t) =
  List.filter_map
    (fun (cname, conv) ->
      let reference = run_eval ~conv ~db:case.Case.db case.prog in
      let plan = run_exec ~conv ~db:case.db case.prog in
      if agree reference plan then None
      else
        Some
          {
            d_kind = "eval-vs-exec";
            d_conv = cname;
            d_detail =
              Printf.sprintf "reference %s, plan %s"
                (outcome_to_string reference)
                (outcome_to_string plan);
          })
    all_conventions

(* ------------------------------------------------------------------ *)
(* Check 1b: statistics must be result-invisible                       *)
(* ------------------------------------------------------------------ *)

(* Statistics only steer plan choice, so they must be bag-invisible: the
   plan engine run against an ANALYZEd database must agree with the plain
   run under every convention combo. *)
let check_modes (case : Case.t) =
  let analyzed = Arc_relation.Database.analyze case.Case.db in
  List.concat_map
    (fun (cname, conv) ->
      let base = run_exec ~conv ~db:case.Case.db case.prog in
      let with_stats =
        outcome_of (fun () ->
            Exec.run ~conv ~guard:(guard ()) ~db:analyzed case.prog)
      in
      if agree base with_stats then []
      else
        [
          {
            d_kind = "stats-vs-plain";
            d_conv = cname;
            d_detail =
              Printf.sprintf "without stats %s, with stats %s"
                (outcome_to_string base)
                (outcome_to_string with_stats);
          };
        ])
    all_conventions

(* ------------------------------------------------------------------ *)
(* Check 2: ARC concrete-syntax round-trip                             *)
(* ------------------------------------------------------------------ *)

let check_arc_roundtrip (case : Case.t) =
  let printed = Arc_syntax.Printer.program ~unicode:false case.Case.prog in
  match Arc_syntax.Parser.program_of_string printed with
  | exception Arc_syntax.Parser.Parse_error m ->
      [
        {
          d_kind = "arc-reparse";
          d_conv = "";
          d_detail = Printf.sprintf "%s in %S" m printed;
        };
      ]
  | reparsed ->
      if equal_program case.prog reparsed then []
      else
        [
          {
            d_kind = "arc-roundtrip";
            d_conv = "";
            d_detail =
              Printf.sprintf "re-parse not structurally equal: %S" printed;
          };
        ]

(* ------------------------------------------------------------------ *)
(* Check 3: SQL round-trip and the SQL engine as a third oracle        *)
(* ------------------------------------------------------------------ *)

let check_sql (case : Case.t) =
  let schemas = Case.schemas case in
  List.concat_map
    (fun (cname, conv) ->
      match Arc_sql.Of_arc.statement ~conv ~schemas case.Case.prog with
      | exception Arc_sql.Of_arc.Unsupported _ -> []
      | stmt -> (
          let text = Arc_sql.Print.statement stmt in
          let reference = run_eval ~conv ~db:case.db case.prog in
          let round =
            match Arc_sql.Parse.statement_of_string text with
            | exception Arc_sql.Parse.Parse_error m ->
                [
                  {
                    d_kind = "sql-reparse";
                    d_conv = cname;
                    d_detail = Printf.sprintf "%s in %S" m text;
                  };
                ]
            | stmt' -> (
                match Arc_sql.To_arc.statement ~schemas stmt' with
                | exception Arc_sql.To_arc.Unsupported m ->
                    [
                      {
                        d_kind = "sql-to-arc";
                        d_conv = cname;
                        d_detail = Printf.sprintf "%s in %S" m text;
                      };
                    ]
                | prog' ->
                    let back = run_eval ~conv ~db:case.db prog' in
                    if agree reference back then []
                    else
                      [
                        {
                          d_kind = "sql-roundtrip";
                          d_conv = cname;
                          d_detail =
                            Printf.sprintf "direct %s, round-tripped %s via %S"
                              (outcome_to_string reference)
                              (outcome_to_string back) text;
                        };
                      ])
          in
          let sql_engine =
            match Arc_sql.Eval_sql.run ~db:case.db stmt with
            | r -> bag_of r
            | exception Arc_sql.Eval_sql.Sql_error m -> Failed ("sql: " ^ m)
            | exception V.Type_error m -> Failed ("type: " ^ m)
          in
          round
          @
          if agree reference sql_engine then []
          else
            [
              {
                d_kind = "sql-eval";
                d_conv = cname;
                d_detail =
                  Printf.sprintf "arc %s, sql engine %s on %S"
                    (outcome_to_string reference)
                    (outcome_to_string sql_engine)
                    text;
              };
            ]))
    [ ("sql", Conventions.sql); ("sql_set", Conventions.sql_set) ]

let check (case : Case.t) =
  check_engines case @ check_modes case @ check_arc_roundtrip case
  @ check_sql case

(* ------------------------------------------------------------------ *)
(* TRC cases: print/parse round-trip, then both engines                *)
(* ------------------------------------------------------------------ *)

let check_trc (tc : Gen.trc_case) =
  let normalize q =
    match Trc.normalize ~head_name:"Q" q with
    | c -> Ok { defs = []; main = Coll c }
    | exception Trc.Normalize_error m -> Error m
  in
  let printed = Trc.to_string tc.Gen.tq in
  let roundtrip =
    match Trc.parse printed with
    | exception Trc.Parse_error m ->
        [
          {
            d_kind = "trc-reparse";
            d_conv = "";
            d_detail = Printf.sprintf "%s in %S" m printed;
          };
        ]
    | q' -> (
        match (normalize tc.tq, normalize q') with
        | Error m, _ ->
            [
              {
                d_kind = "trc-normalize";
                d_conv = "";
                d_detail = Printf.sprintf "%s in %S" m printed;
              };
            ]
        | Ok _, Error m ->
            [
              {
                d_kind = "trc-roundtrip";
                d_conv = "";
                d_detail =
                  Printf.sprintf "re-parse no longer normalizes (%s): %S" m
                    printed;
              };
            ]
        | Ok p, Ok p' ->
            if equal_program p p' then []
            else
              [
                {
                  d_kind = "trc-roundtrip";
                  d_conv = "";
                  d_detail =
                    Printf.sprintf "re-parse normalizes differently: %S" printed;
                };
              ])
  in
  let engines =
    match normalize tc.tq with
    | Error _ -> []
    | Ok p ->
        List.filter_map
          (fun (cname, conv) ->
            let reference = run_eval ~conv ~db:tc.tdb p in
            let plan = run_exec ~conv ~db:tc.tdb p in
            if agree reference plan then None
            else
              Some
                {
                  d_kind = "trc-eval";
                  d_conv = cname;
                  d_detail =
                    Printf.sprintf "reference %s, plan %s on %S"
                      (outcome_to_string reference)
                      (outcome_to_string plan) printed;
                })
          [
            ("classical", Conventions.classical); ("sql_set", Conventions.sql_set);
          ]
  in
  roundtrip @ engines

(* ------------------------------------------------------------------ *)
(* Datalog cases: print/parse round-trip, direct engine vs embedding   *)
(* ------------------------------------------------------------------ *)

let check_datalog (dc : Gen.datalog_case) =
  let printed = Arc_datalog.Ast.program_to_string dc.Gen.dprog in
  let roundtrip =
    match Arc_datalog.Parse.program_of_string printed with
    | exception Arc_datalog.Parse.Parse_error m ->
        [
          {
            d_kind = "datalog-reparse";
            d_conv = "";
            d_detail = Printf.sprintf "%s in %S" m printed;
          };
        ]
    | p' ->
        if Arc_datalog.Ast.equal_program dc.dprog p' then []
        else
          [
            {
              d_kind = "datalog-roundtrip";
              d_conv = "";
              d_detail = Printf.sprintf "re-parse not equal: %S" printed;
            };
          ]
  in
  let direct =
    match Arc_datalog.Eval.query ~db:dc.ddb dc.dprog dc.dquery with
    | r -> bag_of r
    | exception Arc_datalog.Eval.Datalog_error m -> Failed ("datalog: " ^ m)
    | exception V.Type_error m -> Failed ("type: " ^ m)
  in
  let schemas =
    List.map
      (fun name ->
        ( name,
          Arc_relation.Schema.attrs
            (Relation.schema (Arc_relation.Database.find dc.ddb name)) ))
      (Arc_relation.Database.names dc.ddb)
  in
  let embed =
    match Arc_datalog.Embed.program ~schemas dc.dprog ~query:dc.dquery with
    | p -> Some p
    | exception Arc_datalog.Embed.Embed_error _ -> None
  in
  let cross =
    match embed with
    | None -> []
    | Some p ->
        List.filter_map
          (fun (ename, run) ->
            let via_arc = run ~conv:Conventions.souffle ~db:dc.ddb p in
            if agree direct via_arc then None
            else
              Some
                {
                  d_kind = "datalog-embed";
                  d_conv = ename;
                  d_detail =
                    Printf.sprintf "direct %s, embedded %s on %S"
                      (outcome_to_string direct)
                      (outcome_to_string via_arc)
                      printed;
                })
          [
            ("eval", fun ~conv ~db p -> run_eval ~conv ~db p);
            ("exec", fun ~conv ~db p -> run_exec ~conv ~db p);
          ]
  in
  roundtrip @ cross

(* ------------------------------------------------------------------ *)
(* IVM: maintained views vs from-scratch re-evaluation                 *)
(* ------------------------------------------------------------------ *)

module Ivm = Arc_ivm.Ivm

(* A random signed batch against the engine's current database: deletions
   pick live rows (so a single entry never underflows), insertions re-add
   or duplicate rows from the case's original data. An accidentally
   invalid batch (e.g. the same lone row deleted twice) is rejected
   atomically by [Ivm.apply] and simply skipped. *)
let gen_ivm_batch rng (orig : Arc_relation.Database.t)
    (db : Arc_relation.Database.t) : Ivm.batch =
  let names = Arc_relation.Database.names db in
  if names = [] then []
  else
    List.filter_map
      (fun _ ->
        let r = List.nth names (Random.State.int rng (List.length names)) in
        let cur_rows = Relation.tuples (Arc_relation.Database.find db r) in
        let orig_rows = Relation.tuples (Arc_relation.Database.find orig r) in
        if Random.State.bool rng && cur_rows <> [] then
          Some
            ( r,
              [
                ( List.nth cur_rows (Random.State.int rng (List.length cur_rows)),
                  -1 );
              ] )
        else if orig_rows <> [] then
          Some
            ( r,
              [
                ( List.nth orig_rows
                    (Random.State.int rng (List.length orig_rows)),
                  1 + Random.State.int rng 2 );
              ] )
        else None)
      (List.init (1 + Random.State.int rng 3) Fun.id)

(* Register the case as a view under every convention combo, push random
   batches through incremental maintenance, and demand bag-equality with
   from-scratch evaluation after each one. Budget trips skip the combo,
   as in the engine oracle. *)
let check_ivm ?(batches = 3) ~rng (case : Case.t) =
  match case.Case.prog.main with
  | Sentence _ -> []
  | Coll _ ->
      List.concat_map
        (fun (cname, conv) ->
          try
            let ivm = Ivm.create ~conv ~db:case.Case.db () in
            Ivm.register ivm ~name:"main" case.Case.prog;
            let divs = ref [] in
            for _ = 1 to batches do
              if !divs = [] then begin
                let batch = gen_ivm_batch rng case.Case.db (Ivm.db ivm) in
                match
                  if batch = [] then None
                  else Some (Ivm.apply ~guard:(guard ()) ivm batch)
                with
                | exception Ivm.Ivm_error _ -> ()  (* invalid batch: skipped *)
                | None -> ()
                | Some _ -> (
                    match Ivm.check ivm with
                    | [] -> ()
                    | (_, maintained, fresh) :: _ ->
                        divs :=
                          [
                            {
                              d_kind = "ivm-vs-scratch";
                              d_conv = cname;
                              d_detail =
                                Printf.sprintf
                                  "after a %d-row batch: maintained %s, \
                                   scratch %s"
                                  (Ivm.batch_rows batch)
                                  (outcome_to_string (bag_of maintained))
                                  (outcome_to_string (bag_of fresh));
                            };
                          ])
              end
            done;
            !divs
          with
          | Eval.Eval_error _ -> []  (* budget: skip *)
          | Ivm.Ivm_error m ->
              [ { d_kind = "ivm-error"; d_conv = cname; d_detail = m } ])
        all_conventions
