(* The comprehensive control (paper Eq. (4)): like the basic control, but
   within a loss-free interval the send rate increases once the open
   interval theta(t) exceeds the threshold (thetahat_n - W_n)/w_1, i.e.
   whenever counting the open interval raises the estimator.

   The key quantity per cycle is the duration S_n. Writing U_n for the
   time spent at the initial rate f(1/thetahat_n) before the rate starts
   growing, the paper derives (proof of Prop. 3), for SQRT and
   PFTK-simplified:

     S_n = theta_n / f(1/thetahat_n) - V_n 1{thetahat_{n+1} > thetahat_n}

   where V_n has the closed form implemented below. It is the only
   cycle engine; the tests check it against a quadrature of the growth
   ODE d theta/dt = f(1/(w1 theta + W_n)). *)

module Formula = Ebrc_formulas.Formula
module Loss_interval = Ebrc_estimator.Loss_interval
module Loss_process = Ebrc_lossproc.Loss_process

(* V_n of Proposition 3. thetahat1 = thetahat_{n+1}, thetahat0 =
   thetahat_n. Only valid for SQRT (c2 q terms vanish) and
   PFTK-simplified. *)
let v_n ~formula ~w1 ~thetahat0 ~thetahat1 =
  let c1r = Formula.c1 formula *. Formula.rtt formula in
  let c2q =
    match Formula.kind formula with
    | Formula.Sqrt -> 0.0
    | Formula.Pftk_simplified -> Formula.c2 formula *. Formula.rto formula
    | Formula.Pftk_standard | Formula.Aimd _ ->
        invalid_arg "Comprehensive_control.v_n: closed form needs SQRT or \
                     PFTK-simplified"
  in
  let pow x e = x ** e in
  let term1 = -2.0 *. c1r *. (pow thetahat1 0.5 -. pow thetahat0 0.5) in
  let term2 = 2.0 *. c2q *. (pow thetahat1 (-0.5) -. pow thetahat0 (-0.5)) in
  let term3 =
    64.0 /. 5.0 *. c2q *. (pow thetahat1 (-2.5) -. pow thetahat0 (-2.5))
  in
  let term4 =
    (thetahat1 -. thetahat0) /. Formula.eval formula (1.0 /. thetahat0)
  in
  (term1 +. term2 +. term3 +. term4) /. w1

(* Duration of cycle n via the closed form. *)
let cycle_duration_closed ~formula ~estimator ~theta =
  let thetahat0 = Loss_interval.estimate estimator in
  let base = theta /. Formula.eval formula (1.0 /. thetahat0) in
  (* thetahat_{n+1} is the estimate after recording theta; compute it on
     a copy so the caller controls when the estimator advances. *)
  let probe = Loss_interval.copy estimator in
  Loss_interval.record probe theta;
  let thetahat1 = Loss_interval.estimate probe in
  if thetahat1 > thetahat0 then
    let w1 = Loss_interval.first_weight estimator in
    base -. v_n ~formula ~w1 ~thetahat0 ~thetahat1
  else base

type result = {
  throughput : float;
  normalized : float;
}

let simulate ~formula ~estimator ~process ~cycles () =
  if cycles < 2 then
    invalid_arg "Comprehensive_control.simulate: need >= 2 cycles";
  (match Formula.kind formula with
  | Formula.Sqrt | Formula.Pftk_simplified -> ()
  | Formula.Pftk_standard | Formula.Aimd _ ->
      invalid_arg
        "Comprehensive_control.simulate: the closed form needs SQRT or \
         PFTK-simplified");
  let l = Loss_interval.window estimator in
  for _ = 1 to l do
    Loss_interval.record estimator (Loss_process.next process)
  done;
  let total_packets = ref 0.0 and total_time = ref 0.0 in
  for _ = 1 to cycles do
    let theta = Loss_process.next process in
    let s = cycle_duration_closed ~formula ~estimator ~theta in
    total_packets := !total_packets +. theta;
    total_time := !total_time +. s;
    Loss_interval.record estimator theta
  done;
  let throughput = !total_packets /. !total_time in
  let mean_theta = !total_packets /. float_of_int cycles in
  let p_observed = 1.0 /. mean_theta in
  { throughput; normalized = throughput /. Formula.eval formula p_observed }
