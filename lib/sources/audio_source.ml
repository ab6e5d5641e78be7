(* The Claim-2 workload: an audio-like sender that emits packets at a
   fixed packet rate (one packet every [period] seconds) and performs
   equation-based rate control by varying the *packet length*.

   Because the packet emission times are independent of the control, the
   inter-loss-event durations S_n are independent of the send rate X_n —
   cov[X_0, S_0] = 0, condition (C2c) with equality — which is exactly
   the regime where Theorem 2 predicts non-conservativeness for a convex
   f(1/x) (PFTK under heavy loss) and conservativeness for a concave one
   (SQRT).

   The control runs end-to-end: the receiver-side loss history is driven
   by sequence gaps (losses come from a Bernoulli dropper in the Claim-2
   experiments, which drops independently of packet length), and the
   sender recomputes its byte rate at each loss event, exactly like the
   basic control. The open-interval (comprehensive) rule can be enabled
   as in TFRC. *)

module Engine = Ebrc_sim.Engine
module Packet = Ebrc_net.Packet
module Formula = Ebrc_formulas.Formula
module Loss_history = Ebrc_tfrc.Loss_history
module Loss_events = Ebrc_net.Loss_events

type t = {
  engine : Engine.t;
  flow : int;
  period : float;                  (* fixed inter-packet time, s *)
  formula : Formula.t;
  history : Loss_history.t;        (* fed back by the receiver wire *)
  mutable transmit : Packet.t -> unit;
  mutable seq : int;
  mutable sent : int;
  mutable running : bool;
  mutable rate_units : float;      (* current f(1/theta_hat), "packets"/s *)
  mutable rate_samples : float list;
}

(* The audio sender's "rate" is in formula packet-units per second; each
   emitted packet carries rate * period packet-units of payload. We
   encode payload as bytes = max 1 (round (units * base_size)); the rate
   starts at one unit/s. *)
let base_size = 100

let create ?(comprehensive = false) ?(l = 4) ~engine ~flow ~period ~formula
    ~rtt () =
  if period <= 0.0 then invalid_arg "Audio_source.create: period <= 0";
  let history = Loss_history.create ~comprehensive ~l ~rtt () in
  Loss_history.add_probes history engine.Engine.probes;
  {
    engine;
    flow;
    period;
    formula;
    history;
    transmit = (fun _ -> ());
    seq = 0;
    sent = 0;
    running = false;
    rate_units = 1.0;
    rate_samples = [];
  }

let set_transmit t f = t.transmit <- f
let history t = t.history

let update_rate t =
  let p = Loss_history.p_estimate t.history in
  if p > 0.0 then begin
    t.rate_units <- Formula.eval t.formula p;
    t.rate_samples <- t.rate_units :: t.rate_samples
  end

(* The receiver notifies the sender of every arrived sequence number
   (zero-delay feedback is acceptable for the Claim-2 loop: the paper's
   analysis is for the idealised control clocked by loss events). *)
let on_receiver_packet t ~seq =
  Loss_history.on_packet t.history ~now:(Engine.now t.engine) ~seq;
  (* From the first loss event on, recompute at every packet: with the
     comprehensive rule the estimate can also rise between loss events. *)
  if Loss_events.events (Loss_history.loss_events t.history) > 0 then
    update_rate t

let packet_bytes t =
  let units = t.rate_units *. t.period in
  max 1 (int_of_float (Float.round (units *. float_of_int base_size)))

let send_loop t =
  (* One self-rescheduling thunk per start, not one closure per packet. *)
  let rec tick () =
    if t.running then begin
      let pkt =
        Packet.data ~flow:t.flow ~seq:t.seq ~size:(packet_bytes t)
          ~sent_at:(Engine.now t.engine)
      in
      t.seq <- t.seq + 1;
      t.sent <- t.sent + 1;
      t.transmit pkt;
      Engine.schedule_after_unit t.engine ~delay:t.period tick
    end
  in
  tick ()

let start t =
  if not t.running then begin
    t.running <- true;
    send_loop t
  end

let sent t = t.sent
let rate_units t = t.rate_units
let rate_samples t = Array.of_list (List.rev t.rate_samples)
let flow t = t.flow
