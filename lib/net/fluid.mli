(** Fluid background aggregate for the hybrid packet/fluid bottleneck.

    Collapses 10⁴–10⁶ background AIMD (TCP-like) flows into a
    two-dimensional ODE — mean per-flow window W and fluid backlog q —
    in the Misra–Gong–Towsley / Vardoyan–Hollot–Towsley style, solved
    incrementally between packet events with the resumable
    {!Ebrc_numerics.Ode.System} stepper. Coupling to the packet path:
    the queue discipline adds {!queue_pkts} to its occupancy when
    deciding foreground drops ({!Queue_discipline.offer_fluid}), the
    link scales foreground service by {!fg_share}
    ({!Link.attach_fluid}), and the fluid sees foreground arrivals
    through {!on_packet_arrival} as a piecewise-constant input rate.

    Every sync target is the sim time rounded down to a fixed
    resolution quantum — a pure function of event times, with no RNG —
    so hybrid runs are bit-reproducible. A link with no fluid attached
    is structurally the packet-only code path. *)

(** Drop profile the fluid integrates through — mirror of the packet
    queue's discipline. *)
type drop_profile =
  | Tail of { ramp : float }
      (** DropTail stand-in: p rises quadratically from 0 at
          [(1-ramp)·qmax] to 1 at [qmax] (a smooth wall the
          error-controlled stepper can integrate). *)
  | Ramp of { min_th : float; max_th : float; max_p : float }
      (** RED's linear early-drop ramp (instantaneous queue), with the
          non-gentle forced wall above [max_th]. *)

type config = {
  flows : int;           (** N, background flow count *)
  capacity_pps : float;  (** C, bottleneck capacity in packets/s *)
  base_rtt : float;      (** two-way propagation delay, seconds *)
  qmax : float;          (** shared buffer, packets *)
  profile : drop_profile;
  share_cap : float;     (** max capacity fraction the fluid may hold *)
  resolution : float;    (** sync quantum, seconds *)
  w_min : float;         (** window floor, packets *)
  rtol : float;
  atol : float;
}

val default :
  ?profile:drop_profile -> ?share_cap:float -> ?resolution:float ->
  flows:int -> capacity_pps:float -> base_rtt:float -> qmax:float -> unit ->
  config
(** Defaults: DropTail-style [Tail {ramp = 0.25}], share_cap 0.95,
    resolution 1 ms. The foreground rate EWMA time constant is 100 ms. *)

type t

val create : ?t0:float -> config -> t
(** Fresh fluid at W = 1 packet (TCP initial window), empty backlog.
    Raises [Invalid_argument] on malformed configs. *)

val config : t -> config

val sync : t -> now:float -> unit
(** Advance the fluid to [now] rounded down to the resolution quantum
    (no-op within a quantum). Folds the foreground arrivals seen since
    the last sync into the rate EWMA first. *)

val on_packet_arrival : t -> unit
(** Count one foreground packet arrival (folded into the rate EWMA at
    the next {!sync}). *)

val set_pkt_occupancy : t -> int -> unit
(** Tell the fluid how many foreground packets are queued (read by the
    RTT/drop terms of the derivative until the next update). *)

val queue_pkts : t -> float
(** Current fluid backlog, packets (clamped to [0, share_cap·qmax]). *)

val window : t -> float
(** Current mean per-flow window, packets. *)

val fg_rate : t -> float
(** Current foreground arrival-rate estimate, pkt/s. *)

val drop_prob : t -> float
(** Drop probability of the profile at the current total queue. *)

val fg_share : t -> float
(** Service share left to the foreground: [1 - util], floored at
    [1 - share_cap] so packet service times stay finite. *)

type stats = {
  advances : int;          (** sync calls that moved the fluid *)
  ode : Ebrc_numerics.Ode.stats;
  w : float;               (** final window *)
  q : float;               (** final fluid backlog *)
  a_fg : float;            (** final foreground rate estimate *)
  mean_util : float;       (** time-average fluid utilization *)
  mean_drop : float;       (** time-average drop probability *)
}

val stats : t -> stats

val add_probes : t -> Ebrc_telemetry.Telemetry.Probe.set -> unit
(** Register [fluid.advances], [fluid.steps] (accepted ODE steps) and
    the [fluid.queue] level (backlog rounded to packets) in a probe
    set; {!Link.attach_fluid} does this for the link's engine. *)

(** {2 Analytic equilibrium} *)

type equilibrium = {
  eq_p : float;      (** drop probability at the fixed point *)
  eq_w : float;      (** per-flow window, packets *)
  eq_q : float;      (** queue, packets *)
  eq_rtt : float;    (** round-trip time, seconds *)
  eq_rate : float;   (** per-flow throughput, pkt/s *)
}

val equilibrium : config -> equilibrium
(** Fixed point of the fluid with no foreground traffic: dW = 0 gives
    W* = √(2/p); dq = 0 gives N·W*/R·(1−p) = C with q the drop
    profile's inverse at p.
    Solved by bisection (the demand side is strictly decreasing in p).
    This is the analytic many-sources limit the end-to-end test
    compares simulated loss-event rates against. *)
