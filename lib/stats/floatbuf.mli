(** Growable append-only float buffer — allocation-free sample log for
    the simulator hot path (amortized-doubling array instead of a
    [Queue.t] cell per sample). *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val add : t -> float -> unit
val get : t -> int -> float
