(** The Claim-2 / Figure-6 scenario: fixed-packet-rate, variable-length
    equation-based sender behind a Bernoulli dropper. Drops are
    independent of packet length, so cov[X₀, S₀] = 0 and Claim 2
    predicts the conservativeness sign from the convexity of f(1/x). *)

type dropper_mode =
  | Packet_mode  (** Drop independent of length — the Claim-2 regime. *)
  | Byte_mode    (** Drop probability scales with packet length — the
                     ablation breaking Claim 2's independence. *)

type config = {
  seed : int;
  drop_p : float;
  period : float;
  l : int;
  comprehensive : bool;
  formula_kind : Ebrc_formulas.Formula.kind;
  duration : float;
  warmup : float;
  one_way_delay : float;
  dropper_mode : dropper_mode;
  faults : Ebrc_net.Fault.config option;
      (** Deterministic forward-path fault injection on the dropper
          channel (there is no feedback path to black out); see
          {!Scenario.config}. *)
}

val default_config : config
(** 20 ms packet period, L = 4, basic control — the paper's setting. *)

type result = {
  normalized_throughput : float;  (** x̄ / f(p_observed). *)
  p_observed : float;
  cv2_thetahat : float;           (** Squared CV of θ̂ at loss events. *)
  events : int;
  packets : int;
}

val run : config -> result
