(** Per-flow measurement probe: counts, loss events under the paper's
    definition (losses within one RTT aggregate into a single event),
    loss-event intervals in packets, and throughput. *)

type t

val create : rtt_hint:float -> t
(** [rtt_hint] is the loss-event aggregation window (seconds). *)

val on_receive : t -> now:float -> bytes:int -> unit
val on_loss : t -> now:float -> unit

val received : t -> int
val lost : t -> int
val loss_events : t -> int

val loss_event_intervals : t -> float array
(** Completed loss-event intervals, packets. *)

val interval_count : t -> int
(** Number of completed intervals, without materialising the array. *)

val loss_event_rate : t -> float
(** p = (#completed intervals) / (Σ packets in them); 0 before the first
    two loss events. *)

val throughput_pps : t -> float
val throughput_bps : t -> float
