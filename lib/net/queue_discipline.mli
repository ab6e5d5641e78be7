(** Bottleneck queue disciplines: DropTail and RED (Floyd/Jacobson, as
    configured in ns-2: EWMA average queue, linear drop between
    thresholds, non-gentle forced drop, count-based drop spacing,
    packet-mode decisions). *)

type decision = Enqueue | Drop

type red_params = {
  min_th : float;  (** packets *)
  max_th : float;  (** packets *)
  max_p : float;   (** drop probability at [max_th] *)
  wq : float;      (** EWMA weight (ns-2 default 0.002) *)
  byte_mode : bool;
      (** Scale the drop probability by packet size. Packet mode
          (false, the default) drops independently of length — the mode
          the paper's Claim-2 audio experiments rely on. *)
  mean_pktsize : int;  (** Byte-mode reference packet size. *)
  gentle : bool;
      (** RED "gentle" mode: drop probability ramps from [max_p] to 1
          over [max_th, 2·max_th] instead of a hard wall at [max_th].
          The paper's Linux testbed could not enable this; we provide
          it for the ablation. *)
}

val default_red : bdp:float -> red_params
(** The paper's ns-2 setup relative to the bandwidth-delay product:
    min_th = BDP/4, max_th = 5·BDP/4, max_p = 0.1, wq = 0.002. *)

type kind = Drop_tail | Red of red_params

type t

val create : ?service_rate:float -> capacity:int -> kind -> t
(** [service_rate] (pkt/s) enables RED's idle-time average decay. *)

val offer : t -> bytes:int -> now:float -> u:float -> decision
(** Decide the fate of an arriving packet of [bytes] bytes; [u] must be
    a fresh uniform (0,1) draw when {!needs_random} is true (any value
    otherwise); [bytes] only matters for byte-mode RED. Updates
    occupancy and counters when enqueued. *)

val offer_fluid :
  t -> bytes:int -> now:float -> u:float -> extra:float -> decision
(** Hybrid-path variant of {!offer}: the drop decision (DropTail wall,
    RED average and hard-full check) sees the queue depth inflated by
    [extra] — the fluid background backlog in packets. Only the
    {!Link} hybrid path calls this; {!offer} itself is untouched, so a
    run without an attached fluid executes the exact pre-hybrid code. *)

val needs_random : t -> bool
(** Whether [offer] consumes its uniform draw (RED yes, DropTail no) —
    lets the caller skip one RNG draw per packet on DropTail paths. *)

val departure : t -> now:float -> unit
(** Record a packet finishing service. *)

val occupancy : t -> int
val drops : t -> int

val enqueues : t -> int
val average_queue : t -> float
(** RED's EWMA average (0 for DropTail). *)

val add_probes : t -> Ebrc_telemetry.Telemetry.Probe.set -> unit
(** Register [queue.enqueues], [queue.drops], [queue.red_early_drops],
    [queue.red_forced_drops] and the [queue.occupancy] level (packets,
    fluid backlog excluded) in a probe set; {!Link.create} does this
    for its engine. *)
