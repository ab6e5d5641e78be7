(** A simplex link: a queue discipline feeding a fixed-rate server,
    followed by a propagation delay. *)

type t

val create :
  engine:Ebrc_sim.Engine.t ->
  rate_bps:float ->
  delay:float ->
  queue:Queue_discipline.t ->
  rng:Ebrc_rng.Prng.t ->
  t
(** Registers [link.delivered], [link.drops] (the queue's drop count:
    every ingress drop is its Drop verdict) and the queue's own probes
    in the engine's probe set. *)

val set_deliver : t -> (Packet.t -> unit) -> unit
(** Downstream delivery callback (after service + propagation). *)

val set_on_drop : t -> (Packet.t -> unit) -> unit
(** Measurement hook for drops; protocols must learn losses end-to-end. *)

val send : t -> Packet.t -> unit
(** Offer a packet to the queue discipline. *)

val attach_fluid : t -> Fluid.t -> unit
(** Couple a fluid background aggregate to this link: foreground drop
    decisions see the queue inflated by the fluid backlog
    ({!Queue_discipline.offer_fluid}), foreground service is scaled by
    {!Fluid.fg_share}, and every arrival feeds the fluid's input-rate
    estimate. An unattached link is structurally the packet-only code
    path. The fluid's probes join the link's engine. *)

val transmission_time : t -> Packet.t -> float
val queue : t -> Queue_discipline.t
val delivered : t -> int
val bytes_delivered : t -> int
val utilization : t -> duration:float -> float
