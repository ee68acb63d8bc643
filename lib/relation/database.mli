(** A database instance: a finite map from relation names to base relations
    (the extensional database, EDB in the paper's Fig 14 taxonomy). *)

type t

exception Unknown_relation of string

val empty : t
val of_list : (string * Relation.t) list -> t
val add : t -> string -> Relation.t -> t
val find : t -> string -> Relation.t
(** Raises {!Unknown_relation}. *)

val find_opt : t -> string -> Relation.t option
val mem : t -> string -> bool
val names : t -> string list

(** {1 Statistics (ANALYZE)}

    Optional per-relation {!Stats.t}, stored alongside the relations and
    consumed by the plan-layer cost model. Statistics are advisory:
    replacing a relation with {!add} drops its entry, so a present entry
    always describes the current relation (or a patched row count marked
    stale — see {!Stats.patch_rows}). *)

val analyze : ?only:string list -> t -> t
(** Collect statistics for every relation (or just [only]). Raises
    {!Unknown_relation} if [only] names a relation not in the database. *)

val stats : t -> string -> Stats.t option
val stats_bindings : t -> (string * Stats.t) list
val analyzed : t -> bool
(** Whether any relation has statistics. *)

val set_stats : t -> string -> Stats.t -> t
(** No-op when the relation does not exist. *)

val clear_stats : t -> t
val pp : Format.formatter -> t -> unit
