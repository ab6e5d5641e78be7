(* The many-sources limit (paper Section IV-A.1, Claim 3).

   Senders are driven by an exogenous congestion process Z(t) on a finite
   state space: in state i, loss events hit a source at real-time
   intensity lambda_i proportional to its send rate times the state's
   per-packet loss ratio; equivalently, the per-packet loss-event
   probability is 1/interval_i. The source's observed loss-event rate is

       p = (number of loss events) / (packets sent),

   and in the separation-of-timescales limit Eq. (13) gives

       p -> sum_i p_i x_i pi_i / sum_i x_i pi_i,

   a send-rate weighted average of the per-state rates p_i. A responsive
   source (TCP) weights good states (small p_i) more, so p' <= p <= p''
   where p'' is the non-adaptive (Poisson/CBR) average. This module
   provides both the analytic Eq. (13) evaluation for a given rate
   profile {x_i} and a Monte-Carlo sampler in which sources with tunable
   responsiveness ride the same congestion process. *)

module Prng = Ebrc_rng.Prng
module Dist = Ebrc_rng.Dist
module Loss_interval = Ebrc_estimator.Loss_interval

type state = {
  p_i : float;            (* loss-event rate (per packet) in this state *)
  pi_i : float;           (* stationary probability *)
}

type congestion_process = state array

let validate (cp : congestion_process) =
  if Array.length cp = 0 then invalid_arg "Many_sources: empty state space";
  let total = Array.fold_left (fun acc s -> acc +. s.pi_i) 0.0 cp in
  if abs_float (total -. 1.0) > 1e-9 then
    invalid_arg "Many_sources: stationary probabilities must sum to 1";
  Array.iter
    (fun s ->
      if s.p_i <= 0.0 || s.p_i > 1.0 then
        invalid_arg "Many_sources: p_i must be in (0,1]";
      if s.pi_i < 0.0 then invalid_arg "Many_sources: negative pi_i")
    cp

(* Eq. (13): the loss-event rate experienced by a source whose
   time-average rate in state i is rates.(i). *)
let limit_loss_event_rate (cp : congestion_process) ~rates =
  validate cp;
  if Array.length rates <> Array.length cp then
    invalid_arg "Many_sources.limit_loss_event_rate: rate profile mismatch";
  let num = ref 0.0 and den = ref 0.0 in
  Array.iteri
    (fun i s ->
      let x = rates.(i) in
      if x < 0.0 then invalid_arg "Many_sources: negative rate";
      num := !num +. (s.p_i *. x *. s.pi_i);
      den := !den +. (x *. s.pi_i))
    cp;
  if !den = 0.0 then invalid_arg "Many_sources: all rates zero";
  !num /. !den

(* The three canonical rate profiles of Claim 3. [formula_rate] maps a
   per-state loss-event rate to the rate an ideally responsive
   (TCP-like) source would hold in that state. *)
let poisson_profile cp = Array.map (fun _ -> 1.0) cp

let responsive_profile cp ~formula_rate = Array.map (fun s -> formula_rate s.p_i) cp

(* Partially responsive: geometric interpolation between the Poisson
   profile (responsiveness 0) and the fully responsive one
   (responsiveness 1) — models the sluggishness induced by the averaging
   window L. *)
let partially_responsive_profile cp ~formula_rate ~responsiveness =
  if responsiveness < 0.0 || responsiveness > 1.0 then
    invalid_arg "Many_sources: responsiveness not in [0,1]";
  Array.map
    (fun s -> formula_rate s.p_i ** responsiveness)
    cp

(* The finite-timescale version (paper Eq. (12)): before the
   separation-of-timescales limit, each state's contribution is weighted
   by

     b_i = E0[packets sent during a sojourn | i] /
           E0[integral of X over the sojourn | i]

   For a source holding constant rate x_i within state i, the packets
   counted per unit of integrated rate differ from 1 only through the
   boundary effect of loss-event intervals straddling state changes;
   we model it as b_i = lambda_i T_i / (1 + lambda_i T_i) scaled to 1 in
   the limit, with lambda_i = p_i x_i the real-time loss intensity and
   T_i the mean sojourn. b_i -> 1 as lambda' / lambda_i -> 0 (sojourns
   long against the control timescale), recovering Eq. (13). *)
let eq12_weight ~p_i ~rate ~mean_sojourn =
  let lambda_i = p_i *. rate in
  let events_per_sojourn = lambda_i *. mean_sojourn in
  events_per_sojourn /. (1.0 +. events_per_sojourn)

let finite_timescale_loss_event_rate (cp : congestion_process) ~rates
    ~mean_sojourn =
  validate cp;
  if Array.length rates <> Array.length cp then
    invalid_arg "Many_sources.finite_timescale_loss_event_rate: rate mismatch";
  if mean_sojourn <= 0.0 then
    invalid_arg "Many_sources.finite_timescale_loss_event_rate: sojourn <= 0";
  let num = ref 0.0 and den = ref 0.0 in
  Array.iteri
    (fun i s ->
      let x = rates.(i) in
      let b = eq12_weight ~p_i:s.p_i ~rate:x ~mean_sojourn in
      num := !num +. (b *. s.p_i *. x *. s.pi_i);
      den := !den +. (b *. x *. s.pi_i))
    cp;
  if !den = 0.0 then invalid_arg "Many_sources: all weights zero";
  !num /. !den

(* Monte-Carlo: one source rides the congestion process; sojourns are
   geometric with mean [mean_sojourn] (counted in packets of a unit-rate
   clock); the source's packet count advances proportionally to its
   current rate, and each of its packets is the start of a loss event
   with per-packet probability p_i. The source adapts its rate to the
   state with a lag of [lag] sojourns (lag 0 = TCP-like, instant;
   lag = infinity = Poisson). Returns the observed loss-event rate. *)
type mc_result = { observed_p : float; events : int; packets : float }

let monte_carlo rng (cp : congestion_process) ~rates ~mean_sojourn ~steps =
  validate cp;
  if Array.length rates <> Array.length cp then
    invalid_arg "Many_sources.monte_carlo: rate profile mismatch";
  if mean_sojourn <= 0.0 then
    invalid_arg "Many_sources.monte_carlo: mean_sojourn <= 0";
  if steps < 1 then invalid_arg "Many_sources.monte_carlo: steps < 1";
  let n = Array.length cp in
  (* Draw states iid from the stationary law: sojourns are exchangeable,
     which is all Eq. (13) needs. *)
  let cumulative = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i s ->
      acc := !acc +. s.pi_i;
      cumulative.(i) <- !acc)
    cp;
  let draw_state () =
    let u = Prng.float_unit rng in
    let rec find i = if u <= cumulative.(i) || i = n - 1 then i else find (i + 1) in
    find 0
  in
  let events = ref 0 and packets = ref 0.0 in
  for _ = 1 to steps do
    let i = draw_state () in
    let sojourn = Dist.exponential_mean rng ~mean:mean_sojourn in
    let sent = rates.(i) *. sojourn in
    (* Loss events among [sent] packets at per-packet rate p_i. *)
    let expected_events = cp.(i).p_i *. sent in
    events := !events + Dist.poisson rng ~mean:expected_events;
    packets := !packets +. sent
  done;
  { observed_p = float_of_int !events /. !packets; events = !events;
    packets = !packets }

