(** Window-based TCP sender (Reno/NewReno, standing in for ns-2 Sack1):
    slow start, congestion avoidance with delayed-ACK-paced growth, fast
    retransmit on three duplicate ACKs, NewReno hole repair, Jacobson
    RTO with Karn's rule and exponential backoff.

    Loss events follow the paper's TCP-side definition: congestion
    indications separated by less than one smoothed RTT form one event;
    intervals are counted in packets sent between events. *)

type t

type phase = Slow_start | Congestion_avoidance | Fast_recovery

type variant = Tahoe | Reno

val create :
  ?packet_size:int ->
  ?initial_cwnd:float ->
  ?max_window:float ->
  ?min_rto:float ->
  ?variant:variant ->
  engine:Ebrc_sim.Engine.t ->
  flow:int ->
  unit ->
  t
(** Defaults: 1000-byte packets, initial cwnd 2, unbounded receiver
    window, 200 ms minimum RTO (the ns-2 default), [Reno] recovery.
    [Tahoe] restarts from slow start on three duplicate ACKs instead
    of halving into fast recovery. *)

val set_transmit : t -> (Ebrc_net.Packet.t -> unit) -> unit
val set_rate_sample_hook : t -> (float -> unit) -> unit
(** Called with the window size (packets) after each window update. *)

val start : t -> unit
(** Begin transmitting (long-lived flow: always backlogged). *)

val on_ack : t -> acked:int -> dup:bool -> echo:float -> unit

val cwnd : t -> float
val ssthresh : t -> float
val phase : t -> phase
val window : t -> float
val packets_sent : t -> int
val timeouts : t -> int
val fast_retransmits : t -> int
val loss_events : t -> int
val srtt : t -> float
val mean_rtt : t -> float

val loss_event_intervals : t -> float array
(** Completed loss-event intervals in packets sent. *)

val interval_count : t -> int
(** Number of completed intervals, without materialising the array. *)

val loss_event_rate : t -> float
(** p′ = (#completed intervals) / (Σ packets in them). *)
