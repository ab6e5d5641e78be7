(* TFRC receiver-side loss-event history (RFC 3448 section 5, as analysed
   by the paper).

   Losses are detected from sequence-number gaps and grouped into loss
   events by the paper's rule ([Ebrc_net.Loss_events]); loss-event
   intervals are counted in packets. The average loss interval is the
   weighted moving average over the last L completed intervals
   (theta_hat_n), optionally raised by the open interval (the
   comprehensive rule, paper Eq. (4)) — both implemented by
   [Ebrc_estimator.Loss_interval].

   For the paper's covariance instrumentation the history records, at
   each loss event n, the pair (theta_hat_n, theta_n): the estimate in
   force during the interval and the interval that actually materialised. *)

module Loss_interval = Ebrc_estimator.Loss_interval
module Loss_events = Ebrc_net.Loss_events
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
  events : Loss_events.t;
  mutable rtt : float;                (* loss-event aggregation window *)
  mutable expected_seq : int;
  mutable received : int;             (* in-order arrivals *)
  mutable total_lost : int;
  pair_hats : Floatbuf.t;             (* theta_hat_n at each event *)
  pair_thetas : Floatbuf.t;           (* matching theta_n *)
}

let create ?(comprehensive = true) ~l ~rtt () =
  if rtt <= 0.0 then invalid_arg "Loss_history.create: rtt <= 0";
  {
    estimator = Loss_interval.of_tfrc ~l;
    comprehensive;
    events = Loss_events.create ();
    rtt;
    expected_seq = 0;
    received = 0;
    total_lost = 0;
    pair_hats = Floatbuf.create ();
    pair_thetas = Floatbuf.create ();
  }

(* Every completed interval is one estimator update. *)
let add_probes t set =
  Tm.Probe.add set k_loss_events (fun () -> Loss_events.events t.events);
  Tm.Probe.add set k_wali_updates (fun () -> Loss_events.completed t.events)

let set_rtt t rtt = if rtt > 0.0 then t.rtt <- rtt

let open_interval t = Loss_events.open_interval t.events ~count:t.received

let record_loss_event t ~now =
  let closed = open_interval t in
  (* p's window is the RTT this history was given, the base RTT in
     every scenario. *)
  if Loss_events.on_loss t.events ~now ~window:t.rtt ~count:t.received
  then begin
    if Loss_events.events t.events > 1 then begin
      let theta = float_of_int closed in
      if Loss_interval.filled t.estimator > 0 then begin
        Floatbuf.add t.pair_hats (Loss_interval.estimate t.estimator);
        Floatbuf.add t.pair_thetas theta
      end;
      Loss_interval.record t.estimator theta;
      Tm.Histogram.observe m_intervals theta
    end;
    (* value = the open interval this event closes, in packets *)
    if Tm.is_on () then
      Tm.event "tfrc.loss_event" ~time:now ~value:(float_of_int closed)
  end

(* Process an arriving data packet; gaps imply losses (the simulated
   paths never reorder). p counts in-order arrivals only. *)
let on_packet t ~now ~seq =
  if seq > t.expected_seq then begin
    (* seq - expected_seq packets were lost; they all belong to (at
       most) one new loss event here since they were back-to-back. *)
    t.total_lost <- t.total_lost + (seq - t.expected_seq);
    record_loss_event t ~now
  end;
  if seq >= t.expected_seq then begin
    t.expected_seq <- seq + 1;
    t.received <- t.received + 1
  end

let loss_events t = t.events
let total_lost t = t.total_lost

(* Average loss interval: with the comprehensive rule the open interval
   is allowed to raise (never lower) the estimate. *)
let average_interval t =
  if Loss_interval.filled t.estimator = 0 then infinity
  else if not t.comprehensive then Loss_interval.estimate t.estimator
  else
    Loss_interval.estimate_with_open_interval t.estimator
      ~open_interval:(float_of_int (open_interval t))

(* Loss-event rate estimate 1/theta_hat; 0 before any interval
   completes. *)
let p_estimate t =
  let avg = average_interval t in
  if avg = infinity then 0.0 else 1.0 /. avg

let estimate_pairs t ~since =
  Array.init (Floatbuf.length t.pair_hats - since) (fun i ->
      let j = since + i in
      (Floatbuf.get t.pair_hats j, Floatbuf.get t.pair_thetas j))

let pair_count t = Floatbuf.length t.pair_hats
