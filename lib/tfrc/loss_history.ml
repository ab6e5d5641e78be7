(* TFRC receiver-side loss-event history (RFC 3448 section 5, as analysed
   by the paper).

   Losses are detected from sequence-number gaps. A detected loss starts
   a new loss event only if it occurs more than one round-trip time after
   the start of the previous loss event; otherwise it belongs to the same
   event. Loss-event intervals are counted in packets. The average loss
   interval is the weighted moving average over the last L completed
   intervals (theta_hat_n), optionally raised by the open interval (the
   comprehensive rule, paper Eq. (4)) — both implemented by
   [Ebrc_estimator.Loss_interval].

   For the paper's covariance instrumentation the history records, at
   each loss event n, the pair (theta_hat_n, theta_n): the estimate in
   force during the interval and the interval that actually materialised. *)

module Loss_interval = Ebrc_estimator.Loss_interval
module Floatbuf = Ebrc_stats.Floatbuf
module Tm = Ebrc_telemetry.Telemetry

let k_loss_events =
  Tm.Probe.counter ~help:"TFRC loss events (one-RTT aggregated)"
    "tfrc.loss_events"

let k_wali_updates =
  Tm.Probe.counter ~help:"WALI estimator updates (completed intervals)"
    "tfrc.wali_updates"

let m_intervals =
  Tm.Histogram.make ~help:"completed loss-event intervals (packets)"
    "tfrc.loss_interval_packets"

type t = {
  estimator : Loss_interval.t;
  comprehensive : bool;
  discounting : bool;                 (* history discounting, RFC 3448 5.5 *)
  mutable discount : float;           (* current discount factor in (0,1] *)
  mutable rtt : float;                (* loss-event aggregation window *)
  mutable expected_seq : int;
  mutable packets_since_event : int;  (* open interval theta(t), packets *)
  mutable event_count : int;
  mutable last_event_at : float;
  mutable total_lost : int;
  pair_hats : Floatbuf.t;             (* theta_hat_n at each event *)
  pair_thetas : Floatbuf.t;           (* matching theta_n *)
  intervals : Floatbuf.t;
}

let create ?(comprehensive = true) ?(discounting = false) ~l ~rtt () =
  if rtt <= 0.0 then invalid_arg "Loss_history.create: rtt <= 0";
  {
    estimator = Loss_interval.of_tfrc ~l;
    comprehensive;
    discounting;
    discount = 1.0;
    rtt;
    expected_seq = 0;
    packets_since_event = 0;
    event_count = 0;
    last_event_at = neg_infinity;
    total_lost = 0;
    pair_hats = Floatbuf.create ();
    pair_thetas = Floatbuf.create ();
    intervals = Floatbuf.create ();
  }

(* Every completed interval is one estimator update. *)
let add_probes t set =
  Tm.Probe.add set k_loss_events (fun () -> t.event_count);
  Tm.Probe.add set k_wali_updates (fun () -> Floatbuf.length t.intervals)

let set_rtt t rtt = if rtt > 0.0 then t.rtt <- rtt

let record_loss_event t ~now =
  if now -. t.last_event_at > t.rtt then begin
    if t.event_count > 0 then begin
      let theta = float_of_int t.packets_since_event in
      let theta = Float.max theta 1.0 in
      if Loss_interval.filled t.estimator > 0 then begin
        Floatbuf.add t.pair_hats (Loss_interval.estimate t.estimator);
        Floatbuf.add t.pair_thetas theta
      end;
      Floatbuf.add t.intervals theta;
      Loss_interval.record t.estimator theta;
      Tm.Histogram.observe m_intervals theta;
      t.discount <- 1.0
    end;
    (* value = the open interval this event closes, in packets *)
    if Tm.is_on () then
      Tm.event "tfrc.loss_event" ~time:now
        ~value:(float_of_int t.packets_since_event);
    t.event_count <- t.event_count + 1;
    t.packets_since_event <- 0;
    t.last_event_at <- now
  end

(* Process an arriving data packet; gaps imply losses (the simulated
   paths never reorder). *)
let on_packet t ~now ~seq =
  if seq > t.expected_seq then begin
    (* seq - expected_seq packets were lost; they all belong to (at
       most) one new loss event here since they were back-to-back. *)
    t.total_lost <- t.total_lost + (seq - t.expected_seq);
    record_loss_event t ~now
  end;
  if seq >= t.expected_seq then begin
    t.expected_seq <- seq + 1;
    t.packets_since_event <- t.packets_since_event + 1
  end

let has_loss t = t.event_count > 0
let event_count t = t.event_count
let total_lost t = t.total_lost
let open_interval t = t.packets_since_event

(* History discounting (in the spirit of RFC 3448 section 5.5): when the
   open interval has grown well beyond the historical average, the old
   history under-represents how good conditions have become; we shrink
   the contribution of the completed history toward the open interval by
   a factor that decays with the open/average ratio, floored at 1/2 so
   the history is never wiped out by one quiet spell. The factor resets
   to 1 whenever a new loss event completes an interval. *)
let update_discount t ~base ~open_interval =
  if t.discounting && base > 0.0 && open_interval > 2.0 *. base then
    t.discount <- Float.max 0.5 (2.0 *. base /. open_interval)
  else t.discount <- 1.0

(* Average loss interval: with the comprehensive rule the open interval
   is allowed to raise (never lower) the estimate; with discounting the
   completed history is additionally down-weighted during long quiet
   spells, letting the estimate track improving conditions faster.

   The discounted candidate uses exactly the weights of the Eq. (4)
   open-interval candidate (w1 on the open interval, w_{i+2} on history
   interval i, renormalised over the filled prefix) with the history
   weights scaled by the discount factor, so disc = 1 recovers Eq. (4)
   and disc -> 0 trusts the open interval alone. *)
let discounted_candidate t ~open_interval =
  let e = t.estimator in
  let weights = Loss_interval.weights e in
  let l = Array.length weights in
  let m = min (Loss_interval.filled e) (l - 1) in
  let w1 = weights.(0) in
  let wsum = ref w1 and acc = ref (w1 *. open_interval) in
  for i = 0 to m - 1 do
    let w = t.discount *. weights.(i + 1) in
    wsum := !wsum +. w;
    acc := !acc +. (w *. Loss_interval.nth_back e i)
  done;
  !acc /. !wsum

let average_interval t =
  if Loss_interval.filled t.estimator = 0 then infinity
  else begin
    let base = Loss_interval.estimate t.estimator in
    let open_interval = float_of_int t.packets_since_event in
    if not t.comprehensive then base
    else begin
      update_discount t ~base ~open_interval;
      let compr =
        Loss_interval.estimate_with_open_interval t.estimator ~open_interval
      in
      if t.discount >= 1.0 then compr
      else Float.max compr (discounted_candidate t ~open_interval)
    end
  end

(* Loss-event rate estimate 1/theta_hat; 0 before any interval
   completes. *)
let p_estimate t =
  let avg = average_interval t in
  if avg = infinity then 0.0 else 1.0 /. avg

let completed_intervals t = Floatbuf.to_array t.intervals

let interval_count t = Floatbuf.length t.intervals

let estimate_pairs t =
  Array.init (Floatbuf.length t.pair_hats) (fun i ->
      (Floatbuf.get t.pair_hats i, Floatbuf.get t.pair_thetas i))

let pair_count t = Floatbuf.length t.pair_hats

(* Empirical loss-event rate over the whole run (paper Eq. (1)):
   completed intervals only. *)
let empirical_p t =
  let n = Floatbuf.length t.intervals in
  if n = 0 then 0.0 else float_of_int n /. Floatbuf.sum t.intervals
