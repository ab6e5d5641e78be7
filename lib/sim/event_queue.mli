(** Binary min-heap of timestamped events with stable FIFO tie-breaking,
    so simultaneous events are processed in schedule order and runs are
    deterministic. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : Obj.t array;
  mutable size : int;
  mutable next_seq : int;
}
(** Exposed concrete — and not [private] — for the two in-library
    consumers on the per-event path: the engine's run loop peeks
    [size]/[times.(0)]/[seqs.(0)] as direct loads, and the engine's
    [arm] and {!Timing_wheel.try_push} draw a tie-break ticket inline
    (a load and an increment of [next_seq]) instead of paying a
    cross-module call per scheduled event. Treat
    the fields as read-only everywhere else; [payloads] holds [Obj.t]
    by design (see the implementation) and must never be touched
    outside this module. *)

val create : unit -> 'a t
val size : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:float -> 'a -> unit
(** Raises on NaN time. *)

val push_seq : 'a t -> time:float -> seq:int -> 'a -> unit
(** Insert under an explicit tie-break ticket, which the caller drew
    from [next_seq] (leaving it unchanged here). The engine uses it for
    a timer entry that keeps the ticket of its arm. Raises on NaN
    time. *)

val peek_time : 'a t -> float option

val pop : 'a t -> (float * 'a) option

val pop_exn : 'a t -> 'a
(** Pop the earliest payload without allocating (its time is
    [top_time] just before the call). Raises on an empty queue. *)

val clear : 'a t -> unit
