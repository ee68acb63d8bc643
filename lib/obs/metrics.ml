let now_ns = Monotonic_clock.now

type labels = (string * string) list

(* log2 buckets: upper bounds 2^0 .. 2^40, then +Inf. 2^40 ns ≈ 18 min,
   2^40 rows is far beyond anything the engine materializes. *)
let bounds = Array.init 41 (fun i -> Float.of_int (1 lsl i))

type hist = {
  counts : int array;  (* length bounds + 1; last is the +Inf bucket *)
  mutable sum : float;
  mutable total : int;
}

type cell = Counter of int ref | Gauge of float ref | Hist of hist

type kind = K_counter | K_gauge | K_histogram

type family = {
  kind : kind;
  samples : (labels, cell) Hashtbl.t;
  mutable order : labels list;  (* insertion order, reversed *)
}

type t = {
  families : (string, family) Hashtbl.t;
  mutable names : string list;  (* insertion order, reversed *)
}

let create () = { families = Hashtbl.create 16; names = [] }

let kind_to_string = function
  | K_counter -> "counter"
  | K_gauge -> "gauge"
  | K_histogram -> "histogram"

let canon labels = List.sort compare labels

let family t kind name =
  match Hashtbl.find_opt t.families name with
  | Some f ->
      if f.kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s is a %s, not a %s" name
             (kind_to_string f.kind) (kind_to_string kind));
      f
  | None ->
      let f = { kind; samples = Hashtbl.create 4; order = [] } in
      Hashtbl.replace t.families name f;
      t.names <- name :: t.names;
      f

let cell t kind name labels =
  let f = family t kind name in
  let labels = canon labels in
  match Hashtbl.find_opt f.samples labels with
  | Some c -> c
  | None ->
      let c =
        match kind with
        | K_counter -> Counter (ref 0)
        | K_gauge -> Gauge (ref 0.0)
        | K_histogram ->
            Hist
              {
                counts = Array.make (Array.length bounds + 1) 0;
                sum = 0.0;
                total = 0;
              }
      in
      Hashtbl.replace f.samples labels c;
      f.order <- labels :: f.order;
      c

let inc t ?(labels = []) ?(by = 1) name =
  if by < 0 then invalid_arg "Metrics.inc: counters only go up";
  match cell t K_counter name labels with
  | Counter r -> r := !r + by
  | _ -> assert false

let set_gauge t ?(labels = []) name v =
  match cell t K_gauge name labels with
  | Gauge r -> r := v
  | _ -> assert false

let bucket_index v =
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe t ?(labels = []) name v =
  match cell t K_histogram name labels with
  | Hist h ->
      h.counts.(bucket_index v) <- h.counts.(bucket_index v) + 1;
      h.sum <- h.sum +. v;
      h.total <- h.total + 1
  | _ -> assert false

(* --- readback ------------------------------------------------------- *)

let find t name labels =
  match Hashtbl.find_opt t.families name with
  | None -> None
  | Some f -> Hashtbl.find_opt f.samples (canon labels)

let counter_value t ?(labels = []) name =
  match find t name labels with Some (Counter r) -> !r | _ -> 0

let gauge_value t ?(labels = []) name =
  match find t name labels with Some (Gauge r) -> Some !r | _ -> None

let histogram_count t ?(labels = []) name =
  match find t name labels with Some (Hist h) -> h.total | _ -> 0

let histogram_sum t ?(labels = []) name =
  match find t name labels with Some (Hist h) -> h.sum | _ -> 0.0

(* --- expositions ---------------------------------------------------- *)

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let labels_to_string = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
             labels)
      ^ "}"

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let le_string b = if b = infinity then "+Inf" else float_repr b

(* iterate families and series in insertion order *)
let iter_families t f = List.iter (fun n -> f n (Hashtbl.find t.families n)) (List.rev t.names)
let iter_series fam f =
  List.iter (fun ls -> f ls (Hashtbl.find fam.samples ls)) (List.rev fam.order)

let to_prometheus t =
  let buf = Buffer.create 1024 in
  iter_families t (fun name fam ->
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" name (kind_to_string fam.kind));
      iter_series fam (fun labels c ->
          match c with
          | Counter r ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %d\n" name (labels_to_string labels) !r)
          | Gauge r ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" name (labels_to_string labels)
                   (float_repr !r))
          | Hist h ->
              let cum = ref 0 in
              Array.iteri
                (fun i c ->
                  cum := !cum + c;
                  let le =
                    if i < Array.length bounds then bounds.(i) else infinity
                  in
                  (* only emit buckets that carry information: nonempty, or
                     the terminal +Inf bucket *)
                  if c > 0 || le = infinity then
                    Buffer.add_string buf
                      (Printf.sprintf "%s_bucket%s %d\n" name
                         (labels_to_string (labels @ [ ("le", le_string le) ]))
                         !cum))
                h.counts;
              Buffer.add_string buf
                (Printf.sprintf "%s_sum%s %s\n" name (labels_to_string labels)
                   (float_repr h.sum));
              Buffer.add_string buf
                (Printf.sprintf "%s_count%s %d\n" name
                   (labels_to_string labels) h.total)));
  Buffer.contents buf

let to_json t =
  let fams = ref [] in
  iter_families t (fun name fam ->
      let samples = ref [] in
      iter_series fam (fun labels c ->
          let labels_json =
            Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)
          in
          let payload =
            match c with
            | Counter r -> [ ("value", Json.Int !r) ]
            | Gauge r -> [ ("value", Json.Float !r) ]
            | Hist h ->
                let cum = ref 0 in
                let buckets =
                  List.filteri
                    (fun _ b -> b <> Json.Null)
                    (Array.to_list
                       (Array.mapi
                          (fun i c ->
                            cum := !cum + c;
                            let le =
                              if i < Array.length bounds then bounds.(i)
                              else infinity
                            in
                            if c > 0 || le = infinity then
                              Json.Obj
                                [
                                  ("le", Json.Str (le_string le));
                                  ("count", Json.Int !cum);
                                ]
                            else Json.Null)
                          h.counts))
                in
                [
                  ("count", Json.Int h.total);
                  ("sum", Json.Float h.sum);
                  ("buckets", Json.List buckets);
                ]
          in
          samples :=
            Json.Obj (("labels", labels_json) :: payload) :: !samples);
      fams :=
        ( name,
          Json.Obj
            [
              ("type", Json.Str (kind_to_string fam.kind));
              ("samples", Json.List (List.rev !samples));
            ] )
        :: !fams);
  Json.Obj (List.rev !fams)
