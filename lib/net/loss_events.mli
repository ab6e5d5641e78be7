(** The paper's loss-event rule and its interval log: one accountant
    behind p (TFRC), p′ (TCP) and p″ (a probe).

    A loss indication more than [window] after the current event's
    start opens a new loss event, which closes the interval of packets
    counted since the previous start. Each caller keeps its own gap
    test and packet counter and reaches the accountant only at a loss
    indication. *)

type t

val create : unit -> t

val on_loss : t -> now:float -> window:float -> count:int -> bool
(** A loss indication at [now], with [count] the caller's running
    packet count. [true] when it opens a new loss event. *)

val events : t -> int
(** Loss events opened so far. *)

val open_interval : t -> count:int -> int
(** Packets counted since the current event's start (since creation
    before the first event). *)

val completed : t -> int
(** Completed intervals so far: the mark a warmup snapshot takes. *)

val intervals : t -> since:int -> float array
(** Completed intervals, packets, from mark [since] on. *)

val rate : t -> since:int -> float
(** The loss-event rate over the intervals from mark [since] on:
    their number over the packets in them; 0 when there is none. *)
