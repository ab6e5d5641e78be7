(** TCP receiver: cumulative ACKs with delayed acknowledgments (b = 2 by
    default, with a delayed-ACK timer), immediate duplicate ACKs on
    out-of-order arrivals. *)

type t

val create :
  ?ack_every:int ->
  ?delack_timeout:float ->
  engine:Ebrc_sim.Engine.t ->
  flow:int ->
  unit ->
  t

val set_ack_sink : t -> (acked:int -> dup:bool -> echo:float -> unit) -> unit
(** [acked] is the cumulative highest in-order sequence; [echo] the
    origination timestamp of the triggering data packet. *)

val on_data : t -> Ebrc_net.Packet.t -> unit

val expected : t -> int
val received : t -> int
