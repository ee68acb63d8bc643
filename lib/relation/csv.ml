module Value = Arc_value.Value

exception Csv_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Csv_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

(* Cells go straight into the output buffer: no string per cell. *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  if String.contains s '"' then
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s
  else Buffer.add_string buf s;
  Buffer.add_char buf '"'

(* [string_of_int x], digit by digit; on the non-positive side, so that
   [min_int] needs no special case *)
let add_int buf x =
  let rec digits v =
    if v <> 0 then begin
      digits (v / 10);
      Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (v mod 10)))
    end
  in
  if x = 0 then Buffer.add_char buf '0'
  else if x < 0 then (
    Buffer.add_char buf '-';
    digits x)
  else digits (-x)

(* Bare header names are restricted to forms a bare value field can never
   take (no digits-only names, no [null]/[true]/[false]); anything else is
   quoted. Values: only strings are quoted — every other type has an
   unambiguous bare form. *)
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

let add_header buf s =
  if plain_header s then Buffer.add_string buf s else add_quoted buf s

let add_value buf = function
  | Value.Null -> Buffer.add_string buf "null"
  | Value.Int x -> add_int buf x
  | Value.Float _ as v ->
      (* always has '.' or exponent *)
      Buffer.add_string buf (Value.to_string v)
  | Value.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Value.Str s -> add_quoted buf s

(* Every row of a relation carries the relation's schema in the same
   order ([Relation.make] checks), so column [i] is cell [i] of each row. *)
let write rel =
  let attrs = Schema.attrs (Relation.schema rel) in
  let arity = List.length attrs in
  let buf = Buffer.create 256 in
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_char buf ',';
      add_header buf a)
    attrs;
  Buffer.add_char buf '\n';
  Relation.iter
    (fun tp ->
      for i = 0 to arity - 1 do
        if i > 0 then Buffer.add_char buf ',';
        add_value buf (Tuple.cell tp i)
      done;
      Buffer.add_char buf '\n')
    rel;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

type field = Quoted of string | Bare of string

(* One pass over the input: quoted fields may contain commas, quotes
   (doubled) and newlines; records end at a newline outside quotes. *)
let parse_records input =
  let n = String.length input in
  let records = ref [] in
  let fields = ref [] in
  let pos = ref 0 in
  let flush_record () =
    records := List.rev !fields :: !records;
    fields := []
  in
  let parse_field () =
    if !pos < n && input.[!pos] = '"' then begin
      let buf = Buffer.create 16 in
      let i = ref (!pos + 1) in
      let fin = ref false in
      while not !fin do
        if !i >= n then fail "unterminated quoted field at byte %d" !pos
        else if input.[!i] <> '"' then (
          Buffer.add_char buf input.[!i];
          incr i)
        else if !i + 1 < n && input.[!i + 1] = '"' then (
          Buffer.add_char buf '"';
          i := !i + 2)
        else (
          fin := true;
          incr i)
      done;
      pos := !i;
      Quoted (Buffer.contents buf)
    end
    else begin
      let start = !pos in
      while
        !pos < n && input.[!pos] <> ',' && input.[!pos] <> '\n'
        && input.[!pos] <> '\r'
      do
        incr pos
      done;
      Bare (String.sub input start (!pos - start))
    end
  in
  while !pos < n do
    let f = parse_field () in
    fields := f :: !fields;
    if !pos >= n then flush_record ()
    else
      match input.[!pos] with
      | ',' -> incr pos
      | '\r' when !pos + 1 < n && input.[!pos + 1] = '\n' ->
          pos := !pos + 2;
          flush_record ()
      | '\n' | '\r' ->
          incr pos;
          flush_record ()
      | c -> fail "unexpected character %C after quoted field" c
  done;
  if !fields <> [] then flush_record ();
  List.rev !records

let header_of = function
  | Quoted s -> s
  | Bare s -> if s = "" then fail "empty bare header field" else s

(* [Value.to_string]'s float forms: a '.' or an exponent, or a non-finite
   spelling, the sign of a NaN included *)
let looks_float s =
  String.exists (function '.' | 'e' | 'E' -> true | _ -> false) s
  || List.mem s [ "nan"; "-nan"; "inf"; "-inf" ]

let value_of = function
  | Quoted s -> Value.Str s
  | Bare "null" -> Value.Null
  | Bare "true" -> Value.Bool true
  | Bare "false" -> Value.Bool false
  | Bare s -> (
      if looks_float s then
        match float_of_string_opt s with
        | Some f -> Value.Float f
        | None -> fail "malformed float field %S" s
      else
        match int_of_string_opt s with
        | Some i -> Value.Int i
        | None -> fail "malformed bare field %S (strings must be quoted)" s)

let read ?name input =
  match parse_records input with
  | [] -> fail "missing header line"
  | header :: rows ->
      (* a nullary relation writes an empty header line, which parses as
         the single bare field "" *)
      let attrs =
        match header with [ Bare "" ] -> [] | _ -> List.map header_of header
      in
      let width = List.length attrs in
      let row r =
        match (attrs, r) with
        | [], [ Bare "" ] -> []
        | _ ->
            if List.length r <> width then
              fail "row has %d field(s), header has %d" (List.length r) width;
            List.map value_of r
      in
      Relation.of_rows ?name attrs (List.map row rows)
