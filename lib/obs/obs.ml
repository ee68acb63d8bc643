type value = Int of int | Float of float | Str of string | Bool of bool

type span = {
  id : int;
  parent : int option;
  name : string;
  start_ns : int64;
  mutable duration_ns : int64;
  mutable attrs : (string * value) list;
  mutable children : span list;
}

type handle = Dummy | Live of span

type state = {
  clock : unit -> int64;
  mutable next_id : int;
  mutable stack : span list;  (* open spans, innermost first *)
  mutable finished : span list;  (* closed roots, reversed *)
}

type t = Null | Active of state

let null = Null

let collector ?(clock = Monotonic_clock.now) () =
  Active { clock; next_id = 0; stack = []; finished = [] }

let enabled = function Null -> false | Active _ -> true

let enter ?(attrs = []) t name =
  match t with
  | Null -> Dummy
  | Active st ->
      let parent = match st.stack with [] -> None | s :: _ -> Some s.id in
      let s =
        {
          id = st.next_id;
          parent;
          name;
          start_ns = st.clock ();
          duration_ns = 0L;
          attrs;
          children = [];
        }
      in
      st.next_id <- st.next_id + 1;
      st.stack <- s :: st.stack;
      Live s

let close_one st s =
  if s.duration_ns = 0L then
    s.duration_ns <- Int64.sub (st.clock ()) s.start_ns;
  s.children <- List.rev s.children;
  match st.stack with
  | parent :: _ -> parent.children <- s :: parent.children
  | [] -> st.finished <- s :: st.finished

let leave t h =
  match (t, h) with
  | Null, _ | _, Dummy -> ()
  | Active st, Live s ->
      if List.memq s st.stack then begin
        (* close still-open descendants first, so exceptional exits from
           inner spans leave the stack balanced *)
        let rec pop () =
          match st.stack with
          | [] -> ()
          | top :: rest ->
              st.stack <- rest;
              close_one st top;
              if top != s then pop ()
        in
        pop ()
      end

let set h k v =
  match h with
  | Dummy -> ()
  | Live s ->
      if List.mem_assoc k s.attrs then
        s.attrs <-
          List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) s.attrs
      else s.attrs <- s.attrs @ [ (k, v) ]

let add h k n =
  match h with
  | Dummy -> ()
  | Live s ->
      let cur =
        match List.assoc_opt k s.attrs with Some (Int i) -> i | _ -> 0
      in
      set h k (Int (cur + n))

let count t k n =
  match t with
  | Null -> ()
  | Active st -> (
      match st.stack with [] -> () | s :: _ -> add (Live s) k n)

let spans = function Null -> [] | Active st -> List.rev st.finished

let attr_int s k =
  match List.assoc_opt k s.attrs with Some (Int i) -> Some i | _ -> None

let rec fold_spans f acc roots =
  List.fold_left (fun acc s -> fold_spans f (f acc s) s.children) acc roots

let find_spans roots name =
  List.rev
    (fold_spans (fun acc s -> if s.name = name then s :: acc else acc) [] roots)

let counter_total roots k =
  fold_spans
    (fun acc s -> match attr_int s k with Some i -> acc + i | None -> acc)
    0 roots

let value_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s
  | Bool b -> string_of_bool b
