(** The comprehensive control (paper Eq. (4)): the basic control plus a
    rate increase during long loss-free intervals, as in TFRC. Two
    cycle engines are provided: the Proposition-3 closed form (SQRT and
    PFTK-simplified only) and adaptive Dormand–Prince 5(4) integration
    of the rate-growth ODE with a per-(formula, estimator-state) memo
    cache (any formula). Tests cross-validate them. *)

type engine =
  | Closed_form
  | Ode_integration  (** adaptive Dormand–Prince 5(4), memo-cached *)

type result = {
  throughput : float;
  normalized : float;
  p_observed : float;
  cov_theta_thetahat : float;
  cov_rate_duration : float;
  cv_thetahat : float;
  mean_thetahat : float;
  cycles : int;
}

val v_n :
  formula:Ebrc_formulas.Formula.t ->
  w1:float ->
  thetahat0:float ->
  thetahat1:float ->
  float
(** The Proposition-3 correction Vₙ; requires SQRT or PFTK-simplified. *)

val cycle_duration_closed :
  formula:Ebrc_formulas.Formula.t ->
  estimator:Ebrc_estimator.Loss_interval.t ->
  theta:float ->
  float
(** Sₙ for a cycle of θ packets via the closed form. Does not advance the
    estimator. *)

val cycle_duration_ode_adaptive :
  ?rtol:float ->
  ?atol:float ->
  formula:Ebrc_formulas.Formula.t ->
  estimator:Ebrc_estimator.Loss_interval.t ->
  theta:float ->
  unit ->
  float
(** Sₙ by adaptive Dormand–Prince 5(4) integration of
    dθ/dt = f(1/(w₁θ + Wₙ)) with dense-output root finding for the
    threshold crossing; works for any formula.
    Defaults: [rtol = Ode.default_rtol] (1e-6), [atol = Ode.default_atol]
    (1e-9). Growth times are memo-cached per domain, keyed on the formula
    constants, (w₁, Wₙ), threshold, θ and [rtol] — which determine the
    integral exactly — so repeated replications of identical cycles hit
    the cache; the cache is bounded and reset when full. *)

val simulate :
  ?engine:engine ->
  ?warmup_cycles:int ->
  ?ode_rtol:float ->
  formula:Ebrc_formulas.Formula.t ->
  estimator:Ebrc_estimator.Loss_interval.t ->
  process:Ebrc_lossproc.Loss_process.t ->
  cycles:int ->
  unit ->
  result
(** Monte-Carlo run of the comprehensive control, mirroring
    {!Basic_control.simulate}. *)
