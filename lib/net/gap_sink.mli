(** Receiving end of a non-adaptive probe flow: sequence-gap loss
    detection over a {!Loss_events} accountant (the paper's p″
    measurement). *)

type t

val create : window:float -> t
(** [window] is the loss-event aggregation window, seconds. *)

val loss_events : t -> Loss_events.t
val received : t -> int
(** Every arrival, duplicates and late packets included. *)

val on_packet : t -> now:float -> Packet.t -> unit
