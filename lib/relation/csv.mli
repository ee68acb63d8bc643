(** Lossless typed CSV for relations.

    The format is designed so that any relation the engine can produce —
    including NULLs, strings containing delimiters, quotes, newlines, or
    the literal text [null] — round-trips exactly:

    {ul
    {- strings are {e always} double-quoted, with embedded double quotes
       doubled ([""]), so a quoted ["null"] is the three-letter string and
       a bare [null] is SQL NULL;}
    {- bare fields are typed: [null], [true], [false], integers, floats
       (floats always carry a [.] or exponent, or are one of [nan],
       [-nan], [inf] and [-inf], so the int/float split is unambiguous and
       [Value.to_string]'s shortest-reparsing form is used verbatim);}
    {- header fields follow the same quoting rule, so attribute names with
       commas or quotes survive;}
    {- quoted fields may span lines (embedded newlines are data).}} *)

exception Csv_error of string
(** Raised by {!read} on malformed input: unterminated quotes, ragged
    rows, or a bare field that parses as none of the typed forms. *)

val write : Relation.t -> string
(** Header line (attribute names) followed by one line per tuple,
    ["\n"]-separated with a trailing newline. *)

val read : ?name:string -> string -> Relation.t
(** Inverse of {!write}. [read (write r)] equals [r] bag-for-bag with the
    same schema, for every relation [r]. *)
