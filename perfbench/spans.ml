(* The benchmark's own span recorder. Spans are kept in memory while the
   workload runs and written out at the end; the engine's instrumentation
   is not used, so the breakdown measures the layers from outside, around
   calls into their public entry points. *)

let now = Monotonic_clock.now

type span = {
  name : string;
  op : int;  (* id of the benchmark op the span belongs to *)
  parent : int;  (* index of the enclosing span, or -1 *)
  mutable start_ns : int64;
  mutable stop_ns : int64;
  mutable words : float;  (* minor words allocated across the call *)
}

type t = {
  mutable spans : span array;
  mutable len : int;
  mutable open_ : int list;
  mutable op : int;
}

let dummy =
  { name = ""; op = 0; parent = -1; start_ns = 0L; stop_ns = 0L; words = 0. }

let create () = { spans = Array.make 4096 dummy; len = 0; open_ = []; op = 0 }
let set_op t op = t.op <- op

let with_span t name f =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (2 * t.len) dummy in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  let idx = t.len in
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  let s = { dummy with name; op = t.op; parent } in
  t.spans.(idx) <- s;
  t.len <- idx + 1;
  t.open_ <- idx :: t.open_;
  let w0 = Gc.minor_words () in
  s.start_ns <- now ();
  Fun.protect f ~finally:(fun () ->
      s.stop_ns <- now ();
      s.words <- Gc.minor_words () -. w0;
      t.open_ <- List.tl t.open_)

let duration s = Int64.sub s.stop_ns s.start_ns

(* Per span name: total self time in ns (the span minus the part its
   children cover) and total minor words allocated across the calls. *)
let totals t : (string, float * float) Hashtbl.t =
  let children = Array.make t.len 0L in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then
      children.(s.parent) <- Int64.add children.(s.parent) (duration s)
  done;
  let acc = Hashtbl.create 32 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    let self = Int64.to_float (Int64.sub (duration s) children.(i)) in
    let ns, words =
      Option.value ~default:(0., 0.) (Hashtbl.find_opt acc s.name)
    in
    Hashtbl.replace acc s.name (ns +. self, words +. s.words)
  done;
  acc

(* One JSON object per line: name, op, parent, start/end (ns) and words. *)
let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for i = 0 to t.len - 1 do
        let s = t.spans.(i) in
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start_ns\":%Ld,\
           \"end_ns\":%Ld,\"words\":%.0f}\n"
          i s.name s.op s.parent s.start_ns s.stop_ns s.words
      done)
