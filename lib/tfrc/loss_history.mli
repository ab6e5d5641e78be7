(** TFRC receiver-side loss-event history (RFC 3448 §5 as analysed by
    the paper): gap-based loss detection, loss events and
    packet-counted intervals by the paper's rule ({!Ebrc_net.Loss_events}),
    WALI average with or without the comprehensive open-interval rule. *)

type t

val create : ?comprehensive:bool -> l:int -> rtt:float -> unit -> t
(** [l] is the history window; [rtt] the loss-event aggregation window
    (updatable). [comprehensive] defaults to true, matching TFRC. *)

val add_probes : t -> Ebrc_telemetry.Telemetry.Probe.set -> unit
(** Register [tfrc.loss_events] (events opened) and [tfrc.wali_updates]
    (completed intervals) in a probe set — the owning endpoint's
    engine's. *)

val set_rtt : t -> float -> unit

val on_packet : t -> now:float -> seq:int -> unit
(** Feed an arriving data packet; sequence gaps imply losses. *)

val loss_events : t -> Ebrc_net.Loss_events.t
(** The accountant behind p: loss events and completed intervals,
    counted in in-order arrivals. *)

val total_lost : t -> int
val open_interval : t -> int
(** Packets received since the last loss event (θ(t)). *)

val average_interval : t -> float
(** θ̂ (with the open-interval rule when comprehensive); [infinity]
    before the first interval completes. *)

val p_estimate : t -> float
(** 1/θ̂; 0 before any interval completes. *)

val estimate_pairs : t -> since:int -> (float * float) array
(** Per loss event n from mark [since] on: (θ̂ₙ in force during the
    interval, realised θₙ) — the covariance-condition instrumentation
    behind Figures 5 and 10. *)

val pair_count : t -> int
(** Number of recorded (θ̂ₙ, θₙ) pairs: the mark a warmup snapshot
    takes. *)
