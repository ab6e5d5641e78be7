(** Measurement sink for non-adaptive probe flows: sequence-gap loss
    detection feeding a {!Flow_stats} probe (the paper's p″
    measurement). *)

type t

val create : rtt_hint:float -> t
val stats : t -> Flow_stats.t
val on_packet : t -> now:float -> Packet.t -> unit
