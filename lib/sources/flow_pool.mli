(** Struct-of-arrays per-flow hot state for 10⁴–10⁶ cheap flows.

    Flat unboxed columns (rate, next-send time) plus int columns
    (sequence, sent) replace one heap record per flow: each access
    pattern stays dense and prefetchable, and a flow costs a few cache
    lines instead of a pointer chase per field. The record is exposed
    [private] (precedent: {!Ebrc_sim.Engine.t}) so hot loops touch
    columns directly; column {e contents} are freely mutable through
    the fields, only the pool's bookkeeping goes through the API.

    Column ownership is by convention — the source using the pool
    decides which columns it maintains ({!Flock} keeps [rate] as its
    tick gap). *)

type t = private {
  cap : int;
  mutable n : int;
  rate : floatarray;       (** pacing value: pkt/s, or tick gap (s) *)
  next_send : floatarray;  (** absolute next-send time, s *)
  seq : int array;         (** next sequence number *)
  sent : int array;        (** packets sent *)
}

val create : capacity:int -> t
(** All columns preallocated at [capacity] flows and zeroed. *)

val add : ?rate:float -> ?next_send:float -> t -> int
(** Claim the next flow slot, returning its index. Raises
    [Invalid_argument] when the pool is full. *)

val length : t -> int
(** Flows added so far. *)
