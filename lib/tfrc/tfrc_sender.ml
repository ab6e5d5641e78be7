(* TFRC sender: rate-based transmission with the rate set from the
   throughput formula evaluated at the receiver-reported loss-event rate
   and the sender's smoothed RTT.

   Before any loss has been reported the sender doubles its rate each
   feedback (TFRC's slow-start analogue), capped at twice the reported
   receive rate; a report of zero receive rate holds the rate steady.
   After the first loss report, the rate is
   X = f(p_reported, srtt) — the comprehensive control when the receiver
   applies the open-interval rule, the basic control otherwise.

   [conform_to_analysis] disables the receive-rate cap so the control
   matches the paper's idealised model (the paper's lab senders were
   adjusted the same way). *)

module Engine = Ebrc_sim.Engine
module Packet = Ebrc_net.Packet
module Formula = Ebrc_formulas.Formula
module Welford = Ebrc_stats.Welford
module Tm = Ebrc_telemetry.Telemetry

let k_rate_changes =
  Tm.Probe.counter ~help:"TFRC sender rate updates (formula or slow-start)"
    "tfrc.rate_changes"

let k_halvings =
  Tm.Probe.counter ~help:"nofeedback-timer rate halvings"
    "tfrc.nofeedback_halvings"

let k_feedbacks =
  Tm.Probe.counter ~help:"receiver feedback reports processed"
    "tfrc.feedbacks"

type t = {
  engine : Engine.t;
  flow : int;
  formula : Formula.t;
  packet_size : int;
  conform_to_analysis : bool;
  mutable transmit : Packet.t -> unit;
  mutable rate : float;                 (* current send rate, pkt/s *)
  mutable srtt : float;
  mutable seq : int;
  mutable sent : int;
  mutable running : bool;
  mutable saw_loss : bool;
  mutable last_recv_rate : float;
  mutable feedbacks : int;
  mutable rate_changes : int;
  rtt_stats : Welford.t;
  initial_rate : float;
  min_rate : float;
  max_rate : float;
  nofeedback_rtts : float;            (* timer horizon in RTTs; 0 = off *)
  mutable nofeedback_timer : Engine.timer;  (* set once in [create] *)
  mutable rate_halvings : int;
  mutable send_tick : unit -> unit;   (* preallocated send-loop thunk *)
}

let send_loop t =
  if t.running then begin
    let pkt =
      Packet.data ~flow:t.flow ~seq:t.seq ~size:t.packet_size
        ~sent_at:(Engine.now t.engine)
    in
    t.seq <- t.seq + 1;
    t.sent <- t.sent + 1;
    t.transmit pkt;
    (* Not [Float.max]: both operands are positive and non-NaN, and
       the stdlib's NaN/-0 handling is a [caml_signbit] C call per
       packet. *)
    let floor_ = if t.rate > t.min_rate then t.rate else t.min_rate in
    let gap = 1.0 /. floor_ in
    Engine.schedule_unit t.engine ~at:(Engine.now t.engine +. gap)
      t.send_tick
  end

let set_transmit t f = t.transmit <- f

let update_rtt t sample =
  if sample > 0.0 then begin
    Welford.add t.rtt_stats sample;
    if t.srtt = 0.0 then t.srtt <- sample
    else t.srtt <- (0.9 *. t.srtt) +. (0.1 *. sample)
  end

let set_rate t rate =
  let rate = Float.min (Float.max rate t.min_rate) t.max_rate in
  t.rate <- rate;
  t.rate_changes <- t.rate_changes + 1;
  if Atomic.get Tm.on then
    Tm.event "tfrc.rate" ~time:(Engine.now t.engine) ~flow:t.flow ~value:rate

(* The RFC 3448 nofeedback timer: if no receiver report arrives for
   [nofeedback_rtts] round-trip times, halve the rate and re-arm. This
   protects against reverse-path loss and receiver failure; a flow that
   stops hearing feedback decays toward the floor instead of blasting
   at its last rate. *)
let arm_nofeedback_timer t =
  if t.nofeedback_rtts > 0.0 then
    Engine.arm_after t.engine t.nofeedback_timer
      ~delay:(t.nofeedback_rtts *. if t.srtt > 0.0 then t.srtt else 1.0)

let on_nofeedback t =
  if t.running then begin
    t.rate_halvings <- t.rate_halvings + 1;
    if Atomic.get Tm.on then
      Tm.event "tfrc.nofeedback_halving" ~time:(Engine.now t.engine)
        ~flow:t.flow ~value:t.rate;
    set_rate t (t.rate /. 2.0);
    arm_nofeedback_timer t
  end

let create ?(packet_size = 1000) ?(conform_to_analysis = false)
    ?(initial_rate = 1.0) ?(min_rate = 0.1) ?(max_rate = 1e6)
    ?(nofeedback_rtts = 4.0) ~engine ~flow ~formula () =
  if packet_size <= 0 then invalid_arg "Tfrc_sender.create: packet_size <= 0";
  if initial_rate <= 0.0 then
    invalid_arg "Tfrc_sender.create: initial_rate <= 0";
  if max_rate <= min_rate then
    invalid_arg "Tfrc_sender.create: max_rate <= min_rate";
  let t =
    {
      engine;
      flow;
      formula;
      packet_size;
      conform_to_analysis;
      transmit = (fun _ -> ());
    rate = initial_rate;
    srtt = 0.0;
    seq = 0;
    sent = 0;
    running = false;
    saw_loss = false;
    last_recv_rate = 0.0;
    feedbacks = 0;
    rate_changes = 0;
    rtt_stats = Welford.create ();
    initial_rate;
    min_rate;
    max_rate;
      nofeedback_rtts;
      nofeedback_timer = Engine.timer ignore;
      rate_halvings = 0;
      send_tick = (fun () -> ());
    }
  in
  t.send_tick <- (fun () -> send_loop t);
  t.nofeedback_timer <- Engine.timer (fun () -> on_nofeedback t);
  let probes = engine.Engine.probes in
  Tm.Probe.add probes k_rate_changes (fun () -> t.rate_changes);
  Tm.Probe.add probes k_halvings (fun () -> t.rate_halvings);
  Tm.Probe.add probes k_feedbacks (fun () -> t.feedbacks);
  t

let start t =
  if not t.running then begin
    t.running <- true;
    send_loop t;
    arm_nofeedback_timer t
  end

let stop t =
  t.running <- false;
  Engine.disarm t.nofeedback_timer

let on_feedback t ~p_estimate ~recv_rate ~rtt_echo ~hold =
  t.feedbacks <- t.feedbacks + 1;
  arm_nofeedback_timer t;
  let now = Engine.now t.engine in
  (* Exclude the receiver hold time from the RTT sample — without this
     a starved flow echoes a stale timestamp, its smoothed RTT explodes,
     and f(p, srtt) pins the rate at the floor (a death spiral). *)
  if rtt_echo > 0.0 then update_rtt t (now -. rtt_echo -. hold);
  t.last_recv_rate <- recv_rate;
  if p_estimate > 0.0 then begin
    t.saw_loss <- true;
    let formula =
      if t.srtt > 0.0 then Formula.with_rtt t.formula ~rtt:t.srtt
      else t.formula
    in
    let x = Formula.eval formula p_estimate in
    let x =
      if t.conform_to_analysis then x
      else if recv_rate > 0.0 then Float.min x (2.0 *. recv_rate)
      else x
    in
    set_rate t x
  end
  else if not t.saw_loss then begin
    (* Slow-start analogue: double each feedback, capped at twice the
       reported receive rate (RFC 3448 s4.3). A report with
       recv_rate = 0 means nothing reached the receiver since the last
       report — hold the rate rather than blind-double. Treating zero
       as "no cap" let a slow starter (paced at its low initial rate,
       its pending send tick not yet due) double to max_rate on empty
       reports and then blast ~10^5 packets into a full queue the
       moment the tick fired: ~1.5 MW of minor allocation and ~90k
       drops in the first simulated second of every scenario run. *)
    if t.conform_to_analysis then set_rate t (2.0 *. t.rate)
    else if t.last_recv_rate > 0.0 then
      set_rate t
        (Float.min (2.0 *. t.rate) (2.0 *. t.last_recv_rate))
  end

let on_packet t (pkt : Packet.t) =
  match pkt.kind with
  | Packet.Feedback { p_estimate; recv_rate; rtt_echo; hold } ->
      on_feedback t ~p_estimate ~recv_rate ~rtt_echo ~hold
  | Packet.Data | Packet.Ack _ -> ()

let rate t = t.rate
let srtt t = t.srtt
let sent t = t.sent
let feedbacks t = t.feedbacks
let mean_rtt t = Welford.mean t.rtt_stats
let flow t = t.flow
let rate_halvings t = t.rate_halvings
