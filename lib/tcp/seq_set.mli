(** Open-addressing set of sequence numbers (non-negative ints).

    An int-specialized replacement for [(int, unit) Hashtbl.t] on the
    TCP per-packet paths: membership is a linear probe over a flat int
    array under the identity hash — no generic-hash or
    polymorphic-compare C calls — which sequence numbers' near-
    consecutive arrival pattern makes collision-free in practice.
    Deletion is backward-shift, so the table holds no dead entries and
    a probe walks only live keys that share its run. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is rounded up to a power of two (minimum 16). *)

val mem : t -> int -> bool
val add : t -> int -> unit
(** Idempotent. Raises [Invalid_argument] on negative values (the
    encoding reserves a negative sentinel for empty slots). *)

val remove : t -> int -> unit
(** A no-op when absent. *)

val cardinal : t -> int
