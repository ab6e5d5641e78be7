(** TFRC sender: rate-based transmission, rate set to f(p, srtt) on each
    receiver report; slow-start doubling before the first loss report.
    [conform_to_analysis] disables the receive-rate cap so the control
    matches the paper's idealised model. *)

type t

val create :
  ?packet_size:int ->
  ?conform_to_analysis:bool ->
  ?initial_rate:float ->
  ?min_rate:float ->
  ?max_rate:float ->
  ?nofeedback_rtts:float ->
  engine:Ebrc_sim.Engine.t ->
  flow:int ->
  formula:Ebrc_formulas.Formula.t ->
  unit ->
  t
(** [max_rate] (default 10⁶ pkt/s) bounds slow-start doubling so a
    lossless path cannot produce unbounded event counts.
    [nofeedback_rtts] (default 4, RFC 3448) is the horizon of the
    nofeedback timer that halves the rate when receiver reports stop
    arriving; 0 disables it. *)

val set_transmit : t -> (Ebrc_net.Packet.t -> unit) -> unit

val start : t -> unit
val stop : t -> unit

val on_packet : t -> Ebrc_net.Packet.t -> unit
(** Feed any packet arriving on the reverse path; feedback reports are
    processed, everything else ignored. *)

val on_feedback :
  t -> p_estimate:float -> recv_rate:float -> rtt_echo:float -> hold:float ->
  unit

val rate : t -> float
val srtt : t -> float
val sent : t -> int
val feedbacks : t -> int
val mean_rtt : t -> float
val flow : t -> int

val rate_halvings : t -> int
(** Number of nofeedback-timer expiries so far. *)
