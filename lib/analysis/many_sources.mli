(** The many-sources limit (paper §IV-A.1, Claim 3): a source driven by
    an exogenous congestion process observes the loss-event rate of
    Eq. (13) — a send-rate-weighted average of the per-state rates — so
    responsive sources (TCP) see smaller p than sluggish equation-based
    sources, which see smaller p than non-adaptive (Poisson) probes:
    p′ ≤ p ≤ p″. *)

type state = {
  p_i : float;   (** Per-packet loss-event rate in this state. *)
  pi_i : float;  (** Stationary probability. *)
}

type congestion_process = state array

val limit_loss_event_rate : congestion_process -> rates:float array -> float
(** Eq. (13) for a source holding time-average rate [rates.(i)] in
    state i. *)

val poisson_profile : congestion_process -> float array
(** Constant (non-adaptive) rate profile → p″. *)

val responsive_profile :
  congestion_process -> formula_rate:(float -> float) -> float array
(** Ideally responsive profile x_i = formula_rate p_i → p′. *)

val partially_responsive_profile :
  congestion_process ->
  formula_rate:(float -> float) ->
  responsiveness:float ->
  float array
(** Geometric interpolation between non-adaptive (0) and fully
    responsive (1) — the sluggishness induced by the averaging
    window L. *)

val finite_timescale_loss_event_rate :
  congestion_process -> rates:float array -> mean_sojourn:float -> float
(** The pre-limit Eq. (12) with per-state weights
    bᵢ = λᵢTᵢ/(1 + λᵢTᵢ); converges to {!limit_loss_event_rate} as the
    sojourns grow long against the control timescale (bᵢ → 1). *)

val eq12_weight : p_i:float -> rate:float -> mean_sojourn:float -> float

type mc_result = { observed_p : float; events : int; packets : float }

val monte_carlo :
  Ebrc_rng.Prng.t ->
  congestion_process ->
  rates:float array ->
  mean_sojourn:float ->
  steps:int ->
  mc_result
(** Monte-Carlo sampling of the congestion process by a source with the
    given rate profile; converges to [limit_loss_event_rate]. *)
