(** Positional executor rows and the expressions compiled against them.

    A pipeline's rows all bind the same variables in the same order, its
    {e layout}; a row is the array of bound tuples. Terms, predicates and
    keys compile once against a layout into closures that read fixed
    (slot, column) positions. Variables outside the layout (the enclosing
    environment, abstract parameters) and every error path go through
    {!Eval.Internal}'s by-name evaluation, with its messages. *)

open Arc_core.Ast

type t = Arc_relation.Tuple.t array
type layout = var array

type 'a fn = Eval.Internal.benv -> t -> 'a
(** [f outer row]: a compiled expression over a row and the enclosing
    by-name environment it extends. *)

type 'a gfn = Eval.Internal.benv -> t list -> 'a
(** [f outer group]: a compiled group-aware expression over a group's
    rows in input order. The first row is the group's representative; an
    empty group (γ∅ over no rows) has the enclosing environment alone as
    its representative, and its scope variables read as NULL. *)

val slot : layout -> var -> int option
(** The first slot binding the variable: the one a by-name lookup finds. *)

val to_benv : ?outer:Eval.Internal.benv -> layout -> t -> Eval.Internal.benv
(** [row @ outer] as a by-name environment, in layout order. *)

val of_benv : layout -> Eval.Internal.benv -> t

val cons : Arc_relation.Tuple.t -> t -> t
(** A row with one more slot in front. *)

val union : layout list -> layout
(** The variables of the layouts in order of first appearance. *)

val permutation : source:layout -> target:layout -> int array option
(** For each slot of [target], the slot of [source] binding the same
    variable; [None] when the layouts agree. *)

val permute : int array -> t -> t
(** A row of [source]'s layout in [target]'s. A variable [source] does
    not bind (an outer-join branch that lacks a literal leaf) fills its
    slot with a marker that every lookup treats as unbound: it falls
    through to the enclosing environment, as a by-name lookup would. *)

val term : Eval.Internal.ctx -> layout -> term -> Arc_value.Value.t fn

val preds : Eval.Internal.ctx -> layout -> pred list -> bool fn
(** All of the predicates hold ([True]), tested left to right. *)

val formulas : Eval.Internal.ctx -> layout -> formula list -> bool fn
(** All of the residual formulas hold, evaluated by name. *)

val key :
  Eval.Internal.ctx -> layout -> term list -> Arc_value.Value.t array option fn
(** A composite hash key. Under three-valued logic a row with a NULL
    component has none: it can satisfy no equality. *)

val group_key : Eval.Internal.ctx -> layout -> grouping -> Arc_value.Value.t array fn

val gterm :
  Eval.Internal.ctx -> layout -> var list -> term -> Arc_value.Value.t gfn
(** A head assignment or aggregate over a group, given the scope's
    variables. *)

val gformula :
  Eval.Internal.ctx -> layout -> var list -> formula -> Arc_value.Bool3.t gfn
(** A HAVING condition over a group. *)
