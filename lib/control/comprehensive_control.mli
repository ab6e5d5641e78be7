(** The comprehensive control (paper Eq. (4)): the basic control plus a
    rate increase during long loss-free intervals, as in TFRC. Cycle
    durations come from the Proposition-3 closed form, so the formula
    must be SQRT or PFTK-simplified. *)

type result = {
  throughput : float;  (** Time-average send rate, packets/s. *)
  normalized : float;  (** throughput / f(p_observed). *)
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

val simulate :
  formula:Ebrc_formulas.Formula.t ->
  estimator:Ebrc_estimator.Loss_interval.t ->
  process:Ebrc_lossproc.Loss_process.t ->
  cycles:int ->
  unit ->
  result
(** Monte-Carlo run of the comprehensive control, mirroring
    {!Basic_control.simulate}.
    @raise Invalid_argument for PFTK-standard and AIMD, which have no
    closed form, or for fewer than 2 cycles. *)
