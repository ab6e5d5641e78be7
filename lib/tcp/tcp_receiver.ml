(* TCP receiver: cumulative ACKs with delayed acknowledgments (b = 2),
   a delayed-ACK timer so single segments are acknowledged within
   [delack_timeout] even when no second segment arrives, immediate
   duplicate ACKs on out-of-order arrivals, immediate ACK when a gap is
   filled. Out-of-order segments are buffered in a hash set (standing in
   for the SACK scoreboard: the sender model repairs holes NewReno-style,
   which matches ns-2 Sack1 closely enough for loss-event and throughput
   statistics). *)

module Engine = Ebrc_sim.Engine

type t = {
  engine : Engine.t;
  flow : int;
  mutable expected : int;               (* next in-order sequence wanted *)
  out_of_order : Seq_set.t;
  mutable delayed : int;                (* in-order packets since last ACK *)
  ack_every : int;                      (* b: packets per ACK *)
  delack_timeout : float;
  mutable delack_timer : Engine.timer;  (* set once in [create] *)
  mutable last_echo : float;
  mutable send_ack : acked:int -> dup:bool -> echo:float -> unit;
  mutable received : int;
  mutable bytes : int;
}

let set_ack_sink t f = t.send_ack <- f

let expected t = t.expected
let received t = t.received

let ack_now t ~dup ~echo =
  Engine.disarm t.delack_timer;
  t.delayed <- 0;
  t.send_ack ~acked:(t.expected - 1) ~dup ~echo

let arm_delack t =
  if not (Engine.armed t.delack_timer) then
    Engine.arm_after t.engine t.delack_timer ~delay:t.delack_timeout

let create ?(ack_every = 2) ?(delack_timeout = 0.1) ~engine ~flow () =
  if ack_every < 1 then invalid_arg "Tcp_receiver.create: ack_every >= 1";
  if delack_timeout <= 0.0 then
    invalid_arg "Tcp_receiver.create: delack_timeout <= 0";
  let t =
    {
      engine;
      flow;
      expected = 0;
      out_of_order = Seq_set.create ~capacity:64 ();
      delayed = 0;
      ack_every;
      delack_timeout;
      delack_timer = Engine.timer ignore;
      last_echo = 0.0;
      send_ack = (fun ~acked:_ ~dup:_ ~echo:_ -> ());
      received = 0;
      bytes = 0;
    }
  in
  t.delack_timer <-
    Engine.timer (fun () ->
        if t.delayed > 0 then ack_now t ~dup:false ~echo:t.last_echo);
  t

let on_data t (pkt : Ebrc_net.Packet.t) =
  t.received <- t.received + 1;
  t.bytes <- t.bytes + pkt.size;
  let seq = pkt.seq in
  (* Read the timestamp once: each cross-module read of the unboxed
     cell boxes a fresh float. *)
  let stamp = Ebrc_net.Packet.sent_at pkt in
  t.last_echo <- stamp;
  if seq = t.expected then begin
    t.expected <- t.expected + 1;
    let filled_gap = Seq_set.cardinal t.out_of_order > 0 in
    while Seq_set.mem t.out_of_order t.expected do
      Seq_set.remove t.out_of_order t.expected;
      t.expected <- t.expected + 1
    done;
    t.delayed <- t.delayed + 1;
    if filled_gap || t.delayed >= t.ack_every then
      ack_now t ~dup:false ~echo:stamp
    else arm_delack t
  end
  else if seq > t.expected then begin
    Seq_set.add t.out_of_order seq;
    (* Out-of-order: duplicate ACK, sent immediately, without resetting
       the in-order delayed count. *)
    t.send_ack ~acked:(t.expected - 1) ~dup:true ~echo:stamp
  end
  else
    (* Stale duplicate (a spurious retransmission): re-ACK immediately. *)
    ack_now t ~dup:false ~echo:stamp
