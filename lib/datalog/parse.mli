(** Parser for the Soufflé-style Datalog dialect, e.g.

    {v
    Q(ak, sm) :- R(ak, _), sm = sum b : { S(a, b), a < ak }.
    A(x, y) :- P(x, y).
    A(x, y) :- P(x, z), A(z, y).
    v} *)

exception Parse_error of string

val program_of_string : string -> Ast.program
