(** Programmatic statements of Theorems 1–2 (and the machinery behind
    Claims 1–2): given a formula and empirical observables from a run,
    decide which hypotheses hold and what outcome they predict. *)

type prediction = Conservative | Non_conservative | No_prediction

val pp_prediction : Format.formatter -> prediction -> unit

type observables = {
  cov_theta_thetahat : float;  (** Empirical cov[θ₀, θ̂₀] — feeds (C1). *)
  cov_rate_duration : float;   (** Empirical cov[X₀, S₀] — feeds (C2). *)
  thetahat_lo : float;         (** Lower edge of the θ̂ operating region. *)
  thetahat_hi : float;         (** Upper edge of the θ̂ operating region. *)
  estimator_has_variance : bool;  (** Condition (V). *)
}

val theorem1 :
  ?cov_tol:float -> Ebrc_formulas.Formula.t -> observables -> prediction
(** (F1) convexity of 1/f(1/x) on the operating region + (C1)
    cov[θ₀, θ̂₀] ≤ cov_tol ⟹ [Conservative]; otherwise [No_prediction]. *)

val theorem2 :
  ?cov_tol:float -> Ebrc_formulas.Formula.t -> observables -> prediction
(** (F2)+(C2) ⟹ [Conservative]; (F2c)+(C2c)+(V) ⟹ [Non_conservative]. *)

val predict :
  ?cov_tol:float -> Ebrc_formulas.Formula.t -> observables -> prediction
(** Theorem 1 first, then Theorem 2 in both directions. *)

val max_overshoot : Ebrc_formulas.Formula.t -> observables -> float
(** Proposition 4's bound: the deviation-from-convexity ratio of
    g = 1/f(1/x) over the operating region. *)

type c3_verdict = {
  holds : bool;
  violations : int;
      (** Adjacent equal-count bins, in increasing order of Xₙ, whose
          mean Sₙ rises by more than the tolerance. *)
}

val check_c3 :
  ?bins:int -> ?tolerance:float -> (float * float) array -> c3_verdict
(** Condition (C3): E[S₀ | X₀ = x] non-increasing in x, estimated by
    equal-count binning of (Xₙ, Sₙ) trajectory pairs. By Harris'
    inequality (C3) implies (C2), so this is the stronger diagnostic. *)
