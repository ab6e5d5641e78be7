(* The basic control (paper Eq. (3)): between loss events the send rate
   is held at X(t) = f(1/thetahat_n). Given a driving loss-interval
   process {theta_n}, each cycle n:

     X_n = f(1/thetahat_n)        rate set at loss event n
     S_n = theta_n / X_n          duration until the next loss event
                                  (theta_n packets sent at rate X_n)

   and by the Palm inversion formula the long-run throughput is

     E[X(0)] = E[theta_0] / E[theta_0 / f(1/thetahat_0)]   (Prop. 1).

   This module simulates the stationary cycle sequence and accumulates
   everything the paper's figures need: throughput, loss-event rate as
   seen by the source, cov[theta_0, thetahat_0] (condition C1),
   cov[X_0, S_0] (condition C2), and the variability of thetahat. *)

module Formula = Ebrc_formulas.Formula
module Loss_interval = Ebrc_estimator.Loss_interval
module Loss_process = Ebrc_lossproc.Loss_process
module Welford = Ebrc_stats.Welford
module Cov_acc = Ebrc_stats.Cov_acc
module Prng = Ebrc_rng.Prng

type result = {
  throughput : float;          (* time-average send rate, packets/s *)
  normalized : float;          (* throughput / f(p_observed) *)
  p_observed : float;          (* 1 / mean observed loss-event interval *)
  cov_theta_thetahat : float;  (* cov[theta_0, thetahat_0], condition C1 *)
  cov_rate_duration : float;   (* cov[X_0, S_0], condition C2 *)
  cv_thetahat : float;         (* coefficient of variation of thetahat *)
  cv_theta : float;
  mean_thetahat : float;
  cycles : int;
  palm_mean_rate : float;      (* E0_N[X_0]: event-average of the rate *)
  rate_duration_pairs : (float * float) array;
      (* (X_n, S_n) per cycle when requested, for the (C3) diagnostic *)
}

(* Warm the estimator by feeding it [window] intervals drawn from the
   process, so measurements start at stationarity. *)
let warm_up estimator process =
  let l = Loss_interval.window estimator in
  for _ = 1 to l do
    Loss_interval.record estimator (Loss_process.next process)
  done

let simulate ?(collect_pairs = false) ~formula ~estimator ~process ~cycles () =
  if cycles < 2 then invalid_arg "Basic_control.simulate: need >= 2 cycles";
  warm_up estimator process;
  let total_packets = ref 0.0 and total_time = ref 0.0 in
  let c1 = Cov_acc.create () in
  let c2 = Cov_acc.create () in
  let w_thetahat = Welford.create () in
  let w_theta = Welford.create () in
  let w_rate = Welford.create () in
  let pairs = if collect_pairs then Array.make cycles (0.0, 0.0) else [||] in
  for i = 1 to cycles do
    let thetahat = Loss_interval.estimate estimator in
    let theta = Loss_process.next process in
    let x = Formula.eval formula (1.0 /. thetahat) in
    let s = theta /. x in
    total_packets := !total_packets +. theta;
    total_time := !total_time +. s;
    Cov_acc.add c1 theta thetahat;
    Cov_acc.add c2 x s;
    Welford.add w_thetahat thetahat;
    Welford.add w_theta theta;
    Welford.add w_rate x;
    if collect_pairs then pairs.(i - 1) <- (x, s);
    Loss_interval.record estimator theta
  done;
  let throughput = !total_packets /. !total_time in
  let mean_theta = !total_packets /. float_of_int cycles in
  let p_observed = 1.0 /. mean_theta in
  {
    throughput;
    normalized = throughput /. Formula.eval formula p_observed;
    p_observed;
    cov_theta_thetahat = Cov_acc.covariance c1;
    cov_rate_duration = Cov_acc.covariance c2;
    cv_thetahat = Welford.coefficient_of_variation w_thetahat;
    cv_theta = Welford.coefficient_of_variation w_theta;
    mean_thetahat = Welford.mean w_thetahat;
    cycles;
    palm_mean_rate = Welford.mean w_rate;
    rate_duration_pairs = pairs;
  }

(* Exact Proposition-1 throughput for a *given* finite trajectory of
   loss-event intervals: E[theta_0] / E[theta_0 / f(1/thetahat_0)],
   with thetahat computed by the supplied estimator over the same
   trajectory. Useful for deterministic unit tests. *)
let palm_throughput ~formula ~weights (thetas : float array) =
  let l = Array.length weights in
  let n = Array.length thetas in
  if n <= l then invalid_arg "Basic_control.palm_throughput: trajectory too short";
  let estimator = Loss_interval.create ~weights in
  for i = 0 to l - 1 do
    Loss_interval.record estimator thetas.(i)
  done;
  let num = ref 0.0 and den = ref 0.0 in
  for i = l to n - 1 do
    let thetahat = Loss_interval.estimate estimator in
    let theta = thetas.(i) in
    num := !num +. theta;
    den := !den +. (theta /. Formula.eval formula (1.0 /. thetahat));
    Loss_interval.record estimator theta
  done;
  !num /. !den
