(* The few-competing-senders limit (paper Section IV-A.2, Claim 4).

   Model: one sender alone on a link of capacity c, round-trip time 1.
   A loss event occurs exactly when the send rate reaches the capacity.

   - An AIMD(alpha, beta) sender ramps linearly from beta*c to c: each
     cycle lasts (1-beta)c/alpha RTTs and carries the integral of the
     rate, giving loss-event rate p' = 2 alpha / ((1-beta^2) c^2).

   - An equation-based sender with the matched SQRT-type formula
     f(p) = sqrt(alpha (1+beta)/(2(1-beta))) / sqrt(p) converges to the
     fixed point f(p) = c, giving p = alpha (1+beta) / (2 (1-beta) c^2).

   Hence p'/p = 4/(1-beta)^2 — 16/9 for beta = 1/2: TCP sees a loss-event
   rate almost 1.8x larger than the equation-based source under identical
   conditions. This module provides both closed forms plus a
   deterministic cycle simulation that reproduces them (and lets the
   ablation bench check the "less pronounced in simulation" remark by
   running the two controls against a shared link). *)

type params = { alpha : float; beta : float; capacity : float }

let check { alpha; beta; capacity } =
  if alpha <= 0.0 then invalid_arg "Few_flows: alpha <= 0";
  if beta <= 0.0 || beta >= 1.0 then invalid_arg "Few_flows: beta not in (0,1)";
  if capacity <= 0.0 then invalid_arg "Few_flows: capacity <= 0"

(* Loss-event rate of the AIMD sender alone on the link. *)
let aimd_loss_event_rate p =
  check p;
  2.0 *. p.alpha /. ((1.0 -. (p.beta *. p.beta)) *. p.capacity *. p.capacity)

(* Loss-event rate of the equation-based sender at its fixed point. *)
let ebrc_loss_event_rate p =
  check p;
  p.alpha *. (1.0 +. p.beta)
  /. (2.0 *. (1.0 -. p.beta) *. p.capacity *. p.capacity)

(* The headline ratio p'/p, independent of alpha and c:

     p'/p = [2a/((1-b^2)c^2)] / [a(1+b)/(2(1-b)c^2)] = 4/(1+b)^2.

   Note: the paper's text displays "4/(1-beta)^2", but its own numerical
   conclusion — 16/9 ~ 1.7778 at beta = 1/2 — satisfies 4/(1+beta)^2,
   and so do the two closed forms above; the printed exponent sign is a
   typo. Our deterministic simulations confirm 4/(1+beta)^2. *)
let loss_rate_ratio ~beta =
  if beta <= 0.0 || beta >= 1.0 then
    invalid_arg "Few_flows.loss_rate_ratio: beta not in (0,1)";
  4.0 /. ((1.0 +. beta) ** 2.0)

(* The matched loss-throughput function of the AIMD sender. *)
let aimd_formula p =
  check p;
  fun loss_rate ->
    if loss_rate <= 0.0 then invalid_arg "Few_flows.aimd_formula: p <= 0";
    sqrt (p.alpha *. (1.0 +. p.beta) /. (2.0 *. (1.0 -. p.beta)))
    /. sqrt loss_rate

(* Deterministic cycle simulation of the AIMD sender alone on the link:
   rate grows by alpha per RTT from beta*c; a loss event fires at c.
   Returns the empirically measured loss-event rate (events per packet),
   which converges to the closed form as cycles grow. *)
let simulate_aimd ?(cycles = 1000) p =
  check p;
  if cycles < 1 then invalid_arg "Few_flows.simulate_aimd: cycles < 1";
  let events = ref 0 and packets = ref 0.0 in
  for _ = 1 to cycles do
    (* One saw-tooth: rate from beta*c to c in (1-beta)c/alpha RTTs of
       length 1; packets = integral of rate. *)
    let duration = (1.0 -. p.beta) *. p.capacity /. p.alpha in
    let sent = 0.5 *. (p.beta +. 1.0) *. p.capacity *. duration in
    incr events;
    packets := !packets +. sent
  done;
  float_of_int !events /. !packets

(* The paper also mentions (without displaying) numerical simulations of
   one AIMD and one equation-based sender *competing* for the same
   fixed-capacity link: a fluid model where a loss event fires for both
   whenever the sum of the rates reaches c. The AIMD sender ramps
   linearly and halves at each event; the EBRC sender holds f(1/theta_hat)
   and absorbs its own per-event interval. Measures both loss-event
   rates; the paper observed the deviation "does hold, but is somewhat
   less pronounced" than the isolated closed form. *)
type competition_result = {
  aimd_p : float;
  ebrc_p : float;
  ratio : float;          (* aimd_p / ebrc_p *)
  aimd_share : float;     (* fraction of the capacity carried by AIMD *)
}

(* Fluid time step, seconds. *)
let dt = 0.01

let simulate_competition ?(cycles = 2000) ?(l = 8) p =
  check p;
  if cycles < 1 then invalid_arg "Few_flows.simulate_competition: cycles < 1";
  let k2 = p.alpha *. (1.0 +. p.beta) /. (2.0 *. (1.0 -. p.beta)) in
  let estimator = Ebrc_estimator.Loss_interval.of_tfrc ~l in
  Ebrc_estimator.Loss_interval.prime estimator
    (0.25 *. p.capacity *. p.capacity /. k2);
  let aimd_rate = ref (p.beta *. p.capacity /. 2.0) in
  let aimd_events = ref 0 and aimd_packets = ref 0.0 in
  let ebrc_events = ref 0 and ebrc_packets = ref 0.0 in
  let ebrc_interval = ref 0.0 in
  let events = ref 0 in
  while !events < cycles do
    let theta_hat = Ebrc_estimator.Loss_interval.estimate estimator in
    let ebrc_rate = Float.min (sqrt (k2 *. theta_hat)) p.capacity in
    if !aimd_rate +. ebrc_rate >= p.capacity then begin
      (* Loss event: both flows observe it. *)
      incr events;
      incr aimd_events;
      incr ebrc_events;
      aimd_rate := p.beta *. !aimd_rate;
      if !ebrc_interval > 0.0 then begin
        Ebrc_estimator.Loss_interval.record estimator !ebrc_interval;
        ebrc_interval := 0.0
      end
    end
    else begin
      aimd_rate := !aimd_rate +. (p.alpha *. dt);
      aimd_packets := !aimd_packets +. (!aimd_rate *. dt);
      ebrc_packets := !ebrc_packets +. (ebrc_rate *. dt);
      ebrc_interval := !ebrc_interval +. (ebrc_rate *. dt)
    end
  done;
  let aimd_p = float_of_int !aimd_events /. !aimd_packets in
  let ebrc_p = float_of_int !ebrc_events /. !ebrc_packets in
  {
    aimd_p;
    ebrc_p;
    ratio = aimd_p /. ebrc_p;
    aimd_share = !aimd_packets /. (!aimd_packets +. !ebrc_packets);
  }

(* Deterministic iteration of the comprehensive equation-based sender
   alone on the link. Within a cycle the comprehensive control raises
   the rate X(t) = f(1/(w1*theta(t) + W_n)) = k sqrt(w1*theta(t) + W_n);
   the cycle ends (loss event) when X reaches the capacity c, i.e. when
   the open-interval estimate reaches c^2/k^2. Hence

     theta_n = (c^2/k^2 - W_n) / w1   and   theta_hat_{n+1} = c^2/k^2,

   so after one transient cycle every interval equals c^2/k^2 = 1/p with
   p = alpha (1+beta) / (2 (1-beta) c^2) — the paper's fixed point. *)
let simulate_ebrc ?(cycles = 1000) ?(l = 8) p =
  check p;
  if cycles < 1 then invalid_arg "Few_flows.simulate_ebrc: cycles < 1";
  let k2 = p.alpha *. (1.0 +. p.beta) /. (2.0 *. (1.0 -. p.beta)) in
  let cap_interval = p.capacity *. p.capacity /. k2 in
  let estimator = Ebrc_estimator.Loss_interval.of_tfrc ~l in
  (* Start from the AIMD sender's mean interval (a mismatched initial
     condition, to exhibit convergence). *)
  Ebrc_estimator.Loss_interval.prime estimator (1.0 /. aimd_loss_event_rate p);
  let events = ref 0 and packets = ref 0.0 in
  for _ = 1 to cycles do
    let w1 = Ebrc_estimator.Loss_interval.first_weight estimator in
    let w_n = Ebrc_estimator.Loss_interval.tail_weighted_sum estimator in
    (* Rate hits c when w1*theta + W_n = c^2/k^2; if the history is so
       long that W_n already exceeds it, the loss is immediate with a
       minimal interval. *)
    let theta = Float.max ((cap_interval -. w_n) /. w1) 1.0 in
    incr events;
    packets := !packets +. theta;
    Ebrc_estimator.Loss_interval.record estimator theta
  done;
  float_of_int !events /. !packets
