(** LSD radix sort of non-negative-offset ints: the one integer sort
    behind {!Stats.collect}'s all-[Int] columns and {!Relation.sort}'s
    all-[Int] rows. *)

val counts : unit -> int array
(** A digit-count buffer for {!sort}; one serves any number of sorts. *)

val sort :
  int array -> int array -> int array -> int -> lo:int -> range:int ->
  int array
(** [sort a tmp counts n ~lo ~range] sorts [a.(0 .. n - 1)], whose
    elements all lie in [lo, lo + range] with [range >= 0], scattering
    between [a] and [tmp] ([tmp] at least [n] long). The result is
    whichever of the two holds the sorted elements. *)
