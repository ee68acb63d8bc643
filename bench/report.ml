(* The bench report: one record type for every measurement the harness
   takes, and one file format holding a header and the rows: the committed
   baseline BENCH.json, and BENCH.run.json, which every run writes.

   A row is one arm of one workload at one scale: [ns] is its time per run
   (the min-of-N timer's best sample, NaN when unmeasured), [rows_out] the
   rows it produced when that is known, and
   [bag_equal] whether its result matched the reference when that was
   checked. [phase] names the part of the run the row covers: "run" for a
   whole run, an operator or plan node for a breakdown, a batch for IVM. *)

module Json = Arc_obs.Json

type row = {
  workload : string;
  scale : int;  (** the workload's size parameter; 0 for a fixed instance *)
  arm : string;
  phase : string;
  ns : float;
  rows_out : int option;
  bag_equal : bool option;
}

type header = {
  git_sha : string;
  ocaml_version : string;
  iterations : (string * Json.t) list;
}

type t = { header : header; rows : row list }

let row ?(scale = 0) ?(phase = "run") ?rows_out ?bag_equal ~workload ~arm ns
    =
  { workload; scale; arm; phase; ns; rows_out; bag_equal }

let opt f = function None -> Json.Null | Some x -> f x

let row_to_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("scale", Json.Int r.scale);
      ("arm", Json.Str r.arm);
      ("phase", Json.Str r.phase);
      ( "ns",
        if Float.is_finite r.ns then Json.Float (Float.round r.ns)
        else Json.Null );
      ("rows_out", opt (fun n -> Json.Int n) r.rows_out);
      ("bag_equal", opt (fun b -> Json.Bool b) r.bag_equal);
    ]

(* The header is indented, and each row sits on one line, so a diff of
   two reports reads row by row. *)
let to_string t =
  let h = t.header in
  let header =
    Json.Obj
      [
        ("git_sha", Json.Str h.git_sha);
        ("ocaml_version", Json.Str h.ocaml_version);
        ("iterations", Json.Obj h.iterations);
      ]
  in
  Printf.sprintf "{\n  \"header\": %s,\n  \"rows\": [\n%s\n  ]\n}\n"
    (Json.to_string header)
    (String.concat ",\n"
       (List.map (fun r -> "    " ^ Json.to_string (row_to_json r)) t.rows))

let write path t =
  Out_channel.with_open_text path (fun oc -> output_string oc (to_string t))

exception Malformed of string

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> raise (Malformed ("missing field " ^ name))

let str name j =
  match field name j with
  | Json.Str s -> s
  | _ -> raise (Malformed (name ^ " is not a string"))

let int name j =
  match Json.to_int (field name j) with
  | Some n -> n
  | None -> raise (Malformed (name ^ " is not an integer"))

let row_of_json j =
  {
    workload = str "workload" j;
    scale = int "scale" j;
    arm = str "arm" j;
    phase = str "phase" j;
    ns =
      (match field "ns" j with
      | Json.Float f -> f
      | Json.Int n -> Float.of_int n
      | Json.Null -> Float.nan
      | _ -> raise (Malformed "ns is not a number"));
    rows_out =
      (match field "rows_out" j with
      | Json.Null -> None
      | _ -> Some (int "rows_out" j));
    bag_equal =
      (match field "bag_equal" j with
      | Json.Null -> None
      | Json.Bool b -> Some b
      | _ -> raise (Malformed "bag_equal is not a boolean"));
  }

let of_string s =
  match Json.parse s with
  | Error e -> Error e
  | Ok j -> (
      try
        let h = field "header" j in
        let header =
          {
            git_sha = str "git_sha" h;
            ocaml_version = str "ocaml_version" h;
            iterations =
              (match field "iterations" h with
              | Json.Obj kvs -> kvs
              | _ -> raise (Malformed "iterations is not an object"));
          }
        in
        match field "rows" j with
        | Json.List rows -> Ok { header; rows = List.map row_of_json rows }
        | _ -> raise (Malformed "rows is not a list")
      with Malformed e -> Error e)

(* [None] when there is no file at [path]; a file that does not parse as a
   report is an error, not a missing baseline. *)
let read path =
  if not (Sys.file_exists path) then Ok None
  else
    In_channel.with_open_text path In_channel.input_all
    |> of_string |> Result.map Option.some
