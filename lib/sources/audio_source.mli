(** The Claim-2 workload: a fixed-packet-rate, variable-packet-length
    equation-based sender (an adaptive audio source). Emission times are
    independent of the control, so cov[X₀, S₀] = 0 — the regime where
    Theorem 2 predicts non-conservativeness for convex f(1/x) (PFTK,
    heavy loss) and conservativeness for concave f(1/x) (SQRT). *)

type t

val create :
  ?comprehensive:bool ->
  ?l:int ->
  engine:Ebrc_sim.Engine.t ->
  flow:int ->
  period:float ->
  formula:Ebrc_formulas.Formula.t ->
  rtt:float ->
  unit ->
  t
(** [period] is the fixed inter-packet time. The control rate is in
    formula packet-units/s; each packet carries rate·period units,
    encoded as 100 bytes per unit; the rate starts at one unit/s. *)

val set_transmit : t -> (Ebrc_net.Packet.t -> unit) -> unit

val on_receiver_packet : t -> seq:int -> unit
(** Feedback wire from the receiver: every arrived sequence number. *)

val history : t -> Ebrc_tfrc.Loss_history.t
val start : t -> unit
val sent : t -> int
val rate_units : t -> float
val flow : t -> int
