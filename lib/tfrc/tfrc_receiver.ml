(* TFRC receiver: feeds arriving data into the loss history, measures
   the receive rate, and sends one feedback report per round-trip time
   carrying the loss-event rate estimate, the receive rate, and the
   echo of the most recent data timestamp (for the sender's RTT
   estimator). *)

module Engine = Ebrc_sim.Engine
module Packet = Ebrc_net.Packet

type t = {
  engine : Engine.t;
  flow : int;
  history : Loss_history.t;
  feedback_interval : float;
  mutable send_feedback : Packet.t -> unit;
  mutable feedback_seq : int;
  mutable received : int;
  mutable received_at_last_report : int;
  mutable last_report_at : float;
  mutable last_data_stamp : float;
  mutable last_data_arrival : float;
  mutable started : bool;
}

let create ?(comprehensive = true) ~engine ~flow ~l ~rtt () =
  let history = Loss_history.create ~comprehensive ~l ~rtt () in
  Loss_history.add_probes history engine.Engine.probes;
  {
    engine;
    flow;
    history;
    feedback_interval = rtt;
    send_feedback = (fun _ -> ());
    feedback_seq = 0;
    received = 0;
    received_at_last_report = 0;
    last_report_at = 0.0;
    last_data_stamp = 0.0;
    last_data_arrival = 0.0;
    started = false;
  }

let set_feedback_sink t f = t.send_feedback <- f

let history t = t.history

let emit_report t =
  let now = Engine.now t.engine in
  let elapsed = now -. t.last_report_at in
  let recv_rate =
    if elapsed <= 0.0 then 0.0
    else float_of_int (t.received - t.received_at_last_report) /. elapsed
  in
  t.received_at_last_report <- t.received;
  t.last_report_at <- now;
  let pkt =
    Packet.feedback ~flow:t.flow ~seq:t.feedback_seq
      ~p_estimate:(Loss_history.p_estimate t.history)
      ~recv_rate ~rtt_echo:t.last_data_stamp
      ~hold:(Float.max 0.0 (now -. t.last_data_arrival))
      ~sent_at:now
  in
  t.feedback_seq <- t.feedback_seq + 1;
  t.send_feedback pkt

let feedback_loop t =
  (* One self-rescheduling thunk for the lifetime of the receiver. *)
  let rec tick () =
    emit_report t;
    Engine.schedule_unit t.engine
      ~at:(Engine.now t.engine +. t.feedback_interval)
      tick
  in
  Engine.schedule_unit t.engine
    ~at:(Engine.now t.engine +. t.feedback_interval)
    tick

let on_data t (pkt : Packet.t) =
  let now = Engine.now t.engine in
  t.received <- t.received + 1;
  t.last_data_stamp <- (Packet.sent_at pkt);
  t.last_data_arrival <- now;
  Loss_history.on_packet t.history ~now ~seq:pkt.seq;
  if not t.started then begin
    t.started <- true;
    t.last_report_at <- now;
    (* First report goes out immediately so the sender leaves its
       initial rate quickly; then one per RTT. *)
    emit_report t;
    feedback_loop t
  end

let received t = t.received
