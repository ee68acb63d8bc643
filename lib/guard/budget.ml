type resource =
  | Wall_clock
  | Fixpoint_iterations
  | Rows
  | Bindings
  | Depth

let resource_to_string = function
  | Wall_clock -> "wall-clock deadline"
  | Fixpoint_iterations -> "fixpoint iterations"
  | Rows -> "rows materialized"
  | Bindings -> "scope bindings"
  | Depth -> "nesting depth"

type t = {
  timeout_ns : int64 option;
  max_iterations : int option;
  max_rows : int option;
  max_bindings : int option;
  max_depth : int option;
}

let unlimited =
  {
    timeout_ns = None;
    max_iterations = None;
    max_rows = None;
    max_bindings = None;
    max_depth = None;
  }

let default = { unlimited with max_iterations = Some 100_000 }

let with_timeout_ms ms t =
  { t with timeout_ns = Some (Int64.mul (Int64.of_int ms) 1_000_000L) }

let limit t = function
  | Wall_clock ->
      Option.map
        (fun ns -> Int64.to_int (Int64.div ns 1_000_000L))
        t.timeout_ns
  | Fixpoint_iterations -> t.max_iterations
  | Rows -> t.max_rows
  | Bindings -> t.max_bindings
  | Depth -> t.max_depth
