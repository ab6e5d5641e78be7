(* Programmatic statements of the paper's Theorems 1 and 2 and Claims 1
   and 2: given a formula and an empirical run, decide which hypotheses
   hold and what conclusion they predict, so experiments can assert the
   prediction against the measured outcome. *)

module Formula = Ebrc_formulas.Formula
module Conditions = Ebrc_formulas.Conditions

type prediction =
  | Conservative            (* x_bar <= f(p) (up to sampling error) *)
  | Non_conservative        (* x_bar > f(p) *)
  | No_prediction           (* hypotheses of both theorems fail *)

let pp_prediction ppf = function
  | Conservative -> Format.pp_print_string ppf "conservative"
  | Non_conservative -> Format.pp_print_string ppf "non-conservative"
  | No_prediction -> Format.pp_print_string ppf "no-prediction"

(* Tolerance on empirical covariances: a covariance within [tol] of zero
   counts as "slightly positive or negative" in the sense of Claim 1. *)
type observables = {
  cov_theta_thetahat : float;  (* condition C1 input *)
  cov_rate_duration : float;   (* condition C2 input *)
  thetahat_lo : float;         (* region where thetahat takes values *)
  thetahat_hi : float;
  estimator_has_variance : bool;  (* condition V *)
}

let region_of obs : Conditions.region =
  { x_lo = max 1e-6 obs.thetahat_lo; x_hi = max (obs.thetahat_lo *. 2.0) obs.thetahat_hi }

(* Theorem 1: (F1) + (C1) => conservative. *)
let theorem1 ?(cov_tol = 0.0) formula obs =
  let region = region_of obs in
  let f1 = Conditions.f1_holds ~region formula in
  let c1 = obs.cov_theta_thetahat <= cov_tol in
  if f1 && c1 then Conservative else No_prediction

(* Theorem 2, both directions. *)
let theorem2 ?(cov_tol = 0.0) formula obs =
  let region = region_of obs in
  let c2 = obs.cov_rate_duration <= cov_tol in
  let c2c = obs.cov_rate_duration >= -.cov_tol in
  let f2 = Conditions.f2_holds ~region formula in
  let f2c = Conditions.f2c_holds ~region formula in
  if f2 && c2 then Conservative
  else if f2c && c2c && obs.estimator_has_variance then Non_conservative
  else No_prediction

(* Combined verdict: Theorem 1 first (its hypotheses are weaker on the
   function side), then Theorem 2 in both directions. *)
let predict ?(cov_tol = 0.0) formula obs =
  match theorem1 ~cov_tol formula obs with
  | Conservative -> Conservative
  | Non_conservative | No_prediction -> theorem2 ~cov_tol formula obs

(* Proposition 4: with (C1), overshoot is bounded by the deviation-from-
   convexity ratio of g = 1/f(1/x) over the operating region. *)
let max_overshoot formula obs =
  Conditions.deviation_ratio ~region:(region_of obs) formula

(* Condition (C3): E[S0 | X0 = x] non-increasing in x. By Harris'
   inequality (C3) implies the negative-correlation condition (C2), so
   checking it on trajectory data is a stronger diagnostic than the raw
   covariance. We estimate the conditional mean by equal-count binning
   of the (X_n, S_n) pairs and test monotonicity of the bin means up to
   a noise tolerance. *)
type c3_verdict = {
  holds : bool;
  violations : int;              (* adjacent bin pairs going the wrong way *)
}

let check_c3 ?(bins = 8) ?(tolerance = 0.05) (pairs : (float * float) array) =
  if bins < 2 then invalid_arg "Theorems.check_c3: bins >= 2";
  let n = Array.length pairs in
  if n < 2 * bins then invalid_arg "Theorems.check_c3: too few pairs";
  let sorted = Array.copy pairs in
  Array.sort (fun (x1, _) (x2, _) -> compare x1 x2) sorted;
  let per = n / bins in
  (* Mean S_n per bin, in increasing order of X_n. *)
  let bin_mean_durations = Array.make bins 0.0 in
  for b = 0 to bins - 1 do
    let lo = b * per in
    let hi = if b = bins - 1 then n else lo + per in
    let count = float_of_int (hi - lo) in
    let ss = ref 0.0 in
    for i = lo to hi - 1 do
      ss := !ss +. snd sorted.(i)
    done;
    bin_mean_durations.(b) <- !ss /. count
  done;
  let violations = ref 0 in
  for b = 0 to bins - 2 do
    if bin_mean_durations.(b + 1) > bin_mean_durations.(b) *. (1.0 +. tolerance)
    then incr violations
  done;
  { holds = !violations = 0; violations = !violations }
