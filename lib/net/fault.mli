(** Deterministic, seed-driven fault injection.

    A fault injector wraps packet sinks — the forward-path link ingress
    and the per-flow feedback sinks — and perturbs them with scheduled
    link up/down flaps, delay-spike episodes, reordering and duplication
    windows, and one-way feedback blackouts. Every random choice is
    drawn from the injector's own {!Ebrc_rng.Prng} stream, so a fault
    schedule is a pure function of the scenario seed: running twice
    yields bit-identical traces and [fault.*] telemetry counters.

    An injector built from an empty config ({!none}) is inert:
    {!wrap_forward} / {!wrap_feedback} return the underlying sink
    physically unchanged — zero extra closures, zero PRNG draws, zero
    events — so such a run is bit-identical to one that never
    configured faults. *)

type flaps = {
  first_down : float;  (** time of the first down transition (s) *)
  down_mean : float;   (** mean outage length (s) *)
  up_mean : float;     (** mean up-time between outages (s) *)
  flap_jitter : float;
      (** relative spread in [0, 1): each duration is drawn uniformly
          from [mean*(1-jitter), mean*(1+jitter)] *)
  park : bool;
      (** [true]: packets offered while the link is down are parked and
          re-offered FIFO at the next up transition; [false]: dropped *)
}

type window = {
  start : float;   (** first episode start (s) *)
  length : float;  (** episode length (s) *)
  period : float;
      (** repeat interval; [0.] means one-shot. Must satisfy
          [period >= length] when positive. *)
}
(** Episode windows are pure arithmetic on simulated time — membership
    costs a subtraction and a compare, no PRNG, no scheduled events. *)

type config = {
  flaps : flaps option;
  blackouts : window list;
      (** one-way feedback blackouts: feedback packets offered to a
          {!wrap_feedback}-wrapped sink inside a window are dropped *)
  spike : (window * float) option;
      (** delay-spike episodes: forward packets inside the window are
          held for an extra one-way delay (s) *)
  reorder : (window * float * float) option;
      (** [(episodes, prob, hold)]: inside the window each forward
          packet is, with probability [prob], held back [hold] seconds
          so later packets overtake it *)
  duplicate : (window * float) option;
      (** [(episodes, prob)]: inside the window each forward packet is,
          with probability [prob], delivered twice *)
}

val none : config
(** No faults; an injector created from [none] is inert. *)

type t

val create : engine:Ebrc_sim.Engine.t -> rng:Ebrc_rng.Prng.t -> config -> t
(** Validates the config ([Invalid_argument] on nonsense: negative
    times, [flap_jitter] outside [0, 1), probabilities outside [0, 1],
    [0 < period < length]...). If the config is {!none}-shaped, the
    injector is inert: no events are scheduled and [rng] is never
    consulted. Otherwise the flap state machine (if any) is scheduled
    immediately. *)

val active : t -> bool
(** [false] for inert injectors. *)

val wrap_forward : t -> (Packet.t -> unit) -> (Packet.t -> unit)
(** Interpose the injector on a forward-path sink (link ingress).
    Returns the sink unchanged when the injector is inert or only
    blackouts are configured. Several senders may share one wrapped
    sink; parked packets are re-offered in global FIFO order. *)

val wrap_feedback : t -> (Packet.t -> unit) -> (Packet.t -> unit)
(** Interpose the feedback-blackout filter on a reverse-path sink.
    Returns the sink unchanged when inert or no blackouts are
    configured. *)

type stats = {
  transitions : int;     (** link up/down transitions *)
  down_drops : int;      (** packets dropped while the link was down *)
  parked : int;          (** packets parked while the link was down *)
  spiked : int;          (** packets given a delay spike *)
  reordered : int;       (** packets held back for reordering *)
  duplicated : int;      (** extra copies injected *)
  blackout_drops : int;  (** feedback packets dropped in blackouts *)
}

val stats : t -> stats
(** Injector-local counts, always maintained; the [fault.*] telemetry
    counters are probes over them, registered in the engine's probe
    set by {!create}. *)
