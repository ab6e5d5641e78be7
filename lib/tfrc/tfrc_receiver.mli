(** TFRC receiver: loss-history maintenance, receive-rate measurement,
    one feedback report per round-trip time. *)

type t

val create :
  ?comprehensive:bool ->
  engine:Ebrc_sim.Engine.t ->
  flow:int ->
  l:int ->
  rtt:float ->
  unit ->
  t

val set_feedback_sink : t -> (Ebrc_net.Packet.t -> unit) -> unit

val on_data : t -> Ebrc_net.Packet.t -> unit

val history : t -> Loss_history.t
val received : t -> int
