(* Oracle for the comprehensive control's cycle duration Sₙ. The growth
   ODE dθ/dt = f(1/(w₁θ + Wₙ)) is autonomous, so the time θ takes to
   climb from the open-interval threshold to θₙ is the integral of
   dθ / f(1/(w₁θ + Wₙ)) over that range: adaptive Simpson quadrature,
   independent of the Proposition-3 algebra it checks. *)

module F = Ebrc.Formula
module LI = Ebrc.Loss_interval

(* Time for the increasing solution of dy/dt = f y to climb from [y0]
   to [target]; 0 when it is already there. *)
let time_to_reach f ~y0 ~target =
  if target <= y0 then 0.0
  else
    let tol = 1e-15 *. (target -. y0) /. f y0 in
    Ebrc.Quadrature.adaptive_simpson ~tol (fun y -> 1.0 /. f y) ~lo:y0
      ~hi:target

(* Sₙ for a cycle of [theta] packets: the time at the initial rate up to
   the threshold, then the growth time. Does not advance [estimator]. *)
let cycle_duration ~formula ~estimator ~theta =
  let x0 = F.eval formula (1.0 /. LI.estimate estimator) in
  let threshold = LI.open_interval_threshold estimator in
  if theta <= threshold then theta /. x0
  else
    let w1 = LI.first_weight estimator in
    let w_n = LI.tail_weighted_sum estimator in
    (threshold /. x0)
    +. time_to_reach
         (fun y -> F.eval formula (1.0 /. ((w1 *. y) +. w_n)))
         ~y0:threshold ~target:theta
