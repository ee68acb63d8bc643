type t = {
  names : string list;
  arity : int;
  idx : (string, int) Hashtbl.t;
  sorted : string list;  (* names sorted, for name-based equality *)
  key_parts : string array;  (* per sorted attr: "a<len>:<name>" *)
  sorted_ixs : int array;  (* cell index of each sorted attr *)
}

exception Duplicate_attribute of string
exception Unknown_attribute of string

let make names =
  let idx = Hashtbl.create (List.length names) in
  List.iteri
    (fun i n ->
      if Hashtbl.mem idx n then raise (Duplicate_attribute n)
      else Hashtbl.add idx n i)
    names;
  let sorted_pairs =
    List.sort compare (List.mapi (fun i n -> (n, i)) names)
  in
  {
    names;
    arity = List.length names;
    idx;
    sorted = List.map fst sorted_pairs;
    key_parts =
      Array.of_list
        (List.map
           (fun (n, _) -> "a" ^ string_of_int (String.length n) ^ ":" ^ n)
           sorted_pairs);
    sorted_ixs = Array.of_list (List.map snd sorted_pairs);
  }

let attrs t = t.names
let arity t = t.arity
let mem t n = Hashtbl.mem t.idx n

let index t n =
  match Hashtbl.find_opt t.idx n with
  | Some i -> i
  | None -> raise (Unknown_attribute n)

let equal t1 t2 = t1 == t2 || t1.names = t2.names
let equal_names t1 t2 = t1 == t2 || t1.sorted = t2.sorted
let sorted_attrs t = t.sorted
let key_parts t = t.key_parts
let sorted_ixs t = t.sorted_ixs

let project t names =
  List.iter (fun n -> if not (mem t n) then raise (Unknown_attribute n)) names;
  make names

let to_string t = "(" ^ String.concat ", " t.names ^ ")"
let pp fmt t = Format.pp_print_string fmt (to_string t)
