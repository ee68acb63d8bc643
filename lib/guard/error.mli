(** Typed evaluation errors.

    Replaces the engine's stringly [Eval_error of string]: every failure
    mode the engine can hit is a constructor, and the ["in collection %S"]
    attribution chain that used to be baked into the message string is a
    real [string list] (outermost collection first). {!to_string} renders
    exactly the messages the seed engine produced, so existing
    error-message expectations keep holding. *)

type budget_exceeded = {
  resource : Budget.resource;
  limit : int;  (** the configured limit ([Wall_clock]: milliseconds) *)
  used : int;  (** consumption at the moment the limit tripped *)
}

type external_failure = {
  relation : string;
  attempts : int;  (** completion attempts made, including retries *)
  cause : string;  (** message of the last underlying failure *)
}

type kind =
  | Unstratifiable of { name : string; dep : string }
      (** recursion through negation or aggregation *)
  | Unbound_external of { relation : string; bound : string list }
      (** no access pattern accepts the bound attribute set *)
  | Unbound_abstract of { relation : string; bound : string list }
      (** abstract relation used without all attributes bound *)
  | Unknown_relation of string
  | Head_unassigned of { head : string; attr : string }
  | Budget_exceeded of budget_exceeded
  | Cancelled
  | External_failure of external_failure
  | Msg of string
      (** residual failures (malformed terms, unbound variables, ...) *)

type t = {
  kind : kind;
  context : string list;
      (** enclosing collections, outermost first; rendered as the
          [in collection "N": ...] chain *)
}

exception Guard_error of t
(** Raised by {!Gov}, by retry-exhausted externals and by the plan
    lowering's rejections. The engine's [Eval_error] is this exception
    rebound; collection context is added on the way out. *)

val make : ?context:string list -> kind -> t
val in_collection : string -> t -> t
(** Pushes a collection name onto the front of the context chain. *)

val kind_to_string : kind -> string
val to_string : t -> string
(** The full rendered message, identical to the seed engine's strings:
    each context entry contributes an [in collection "N": ] prefix. *)
