(** TFRC receiver-side loss-event history (RFC 3448 §5 as analysed by
    the paper): gap-based loss detection, one-RTT loss-event
    aggregation, packet-counted intervals, WALI average with or without
    the comprehensive open-interval rule. *)

type t

val create :
  ?comprehensive:bool -> ?discounting:bool -> l:int -> rtt:float -> unit -> t
(** [l] is the history window; [rtt] the loss-event aggregation window
    (updatable). [comprehensive] defaults to true, matching TFRC.
    [discounting] (default false) enables history discounting in the
    spirit of RFC 3448 5.5: during a quiet spell much longer than the
    historical average, the completed history is down-weighted so the
    estimate tracks improving conditions faster; the factor resets at
    the next loss event. *)

val add_probes : t -> Ebrc_telemetry.Telemetry.Probe.set -> unit
(** Register [tfrc.loss_events] ({!event_count}) and
    [tfrc.wali_updates] ({!interval_count}) in a probe set — the
    owning endpoint's engine's. *)

val set_rtt : t -> float -> unit

val on_packet : t -> now:float -> seq:int -> unit
(** Feed an arriving data packet; sequence gaps imply losses. *)

val has_loss : t -> bool
val event_count : t -> int
val total_lost : t -> int
val open_interval : t -> int
(** Packets received since the last loss event (θ(t)). *)

val average_interval : t -> float
(** θ̂ (with the open-interval rule when comprehensive); [infinity]
    before the first interval completes. *)

val p_estimate : t -> float
(** 1/θ̂; 0 before any interval completes. *)

val completed_intervals : t -> float array

val interval_count : t -> int
(** Number of completed intervals, without materialising the array. *)

val estimate_pairs : t -> (float * float) array
(** Per loss event n: (θ̂ₙ in force during the interval, realised θₙ) —
    the covariance-condition instrumentation behind Figures 5 and 10. *)

val pair_count : t -> int
(** Number of recorded (θ̂ₙ, θₙ) pairs, without materialising them. *)

val empirical_p : t -> float
(** Whole-run loss-event rate (paper Eq. (1)). *)
