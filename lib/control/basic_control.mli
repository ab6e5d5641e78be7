(** The basic control (paper Eq. (3)): rate held at f(1/θ̂ₙ) between loss
    events. Monte-Carlo simulation of the stationary cycle sequence with
    all the observables the paper's Figures 3–6 report. *)

type result = {
  throughput : float;          (** Time-average send rate, packets/s. *)
  normalized : float;          (** throughput / f(p_observed). *)
  p_observed : float;          (** 1 / mean observed loss-event interval. *)
  cov_theta_thetahat : float;  (** cov[θ₀, θ̂₀] — condition (C1). *)
  cov_rate_duration : float;   (** cov[X₀, S₀] — condition (C2). *)
  cv_thetahat : float;         (** Coefficient of variation of θ̂. *)
  palm_mean_rate : float;      (** E⁰_N[X₀], the event-average rate. *)
  rate_duration_pairs : (float * float) array;
      (** (Xₙ, Sₙ) per cycle when [collect_pairs] was set — input to the
          (C3) diagnostic {!Theorems.check_c3}. Empty otherwise. *)
}

val simulate :
  ?collect_pairs:bool ->
  formula:Ebrc_formulas.Formula.t ->
  estimator:Ebrc_estimator.Loss_interval.t ->
  process:Ebrc_lossproc.Loss_process.t ->
  cycles:int ->
  unit ->
  result
(** Run [cycles] loss-event cycles after warming the estimator with one
    full window. *)

val palm_throughput :
  formula:Ebrc_formulas.Formula.t ->
  weights:float array ->
  float array ->
  float
(** Proposition-1 throughput Σθₙ / Σ(θₙ/f(1/θ̂ₙ)) computed exactly over a
    given trajectory (the first [window] entries warm the estimator). *)
