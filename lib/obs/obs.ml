type value = Int of int | Float of float | Str of string | Bool of bool

type span = {
  id : int;
  parent : int option;
  name : string;
  start_ns : int64;
  duration_ns : int64;
  attrs : (string * value) list;
  children : span list;
}

let attr_int s k =
  match List.assoc_opt k s.attrs with Some (Int i) -> Some i | _ -> None

let find_spans roots name =
  let rec walk acc s =
    let acc = if s.name = name then s :: acc else acc in
    List.fold_left walk acc s.children
  in
  List.rev (List.fold_left walk [] roots)

let value_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s
  | Bool b -> string_of_bool b
