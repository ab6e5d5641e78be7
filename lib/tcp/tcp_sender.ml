(* Window-based TCP sender (Reno/NewReno, approximating ns-2 Sack1 for
   the statistics this reproduction needs):

     - slow start (cwnd += 1 per new ACK while cwnd < ssthresh),
     - congestion avoidance (cwnd += 1/cwnd per new ACK; with delayed
       ACKs b=2 this yields the ~1/b-per-RTT linear growth the PFTK
       model assumes),
     - fast retransmit on 3 duplicate ACKs, NewReno partial-ACK hole
       repair during recovery, one window halving per recovery episode,
     - retransmission timeout with Jacobson RTO, Karn's rule and
       exponential backoff, followed by slow start.

   Loss events are tracked sender-side as the paper defines them for
   TCP: congestion indications (fast retransmit or timeout) within one
   smoothed RTT of an event's start count as a single loss event;
   loss-event intervals are measured in new segments sent. *)

module Engine = Ebrc_sim.Engine
module Packet = Ebrc_net.Packet
module Loss_events = Ebrc_net.Loss_events
module Tm = Ebrc_telemetry.Telemetry

let k_timeouts =
  Tm.Probe.counter ~help:"TCP retransmission timeouts" "tcp.timeouts"

let k_fast_retx =
  Tm.Probe.counter ~help:"TCP fast retransmits (3 dup ACKs)"
    "tcp.fast_retransmits"

let k_cwnd_halved =
  Tm.Probe.counter ~help:"congestion-window reductions (timeout or recovery)"
    "tcp.cwnd_halvings"

type phase = Slow_start | Congestion_avoidance | Fast_recovery

type variant = Tahoe | Reno

type t = {
  engine : Engine.t;
  flow : int;
  variant : variant;
  packet_size : int;                   (* bytes *)
  mutable transmit : Packet.t -> unit;
  (* --- window state --- *)
  mutable cwnd : float;                (* packets *)
  mutable ssthresh : float;
  max_window : float;
  mutable snd_una : int;               (* lowest unacknowledged seq *)
  mutable snd_nxt : int;               (* next new seq to send *)
  mutable dup_acks : int;
  mutable phase : phase;
  mutable recover : int;               (* recovery ends when una > recover *)
  (* --- RTT estimation / RTO --- *)
  mutable srtt : float;
  mutable rttvar : float;
  mutable rto : float;
  mutable backoff : int;
  mutable rto_timer : Engine.timer;    (* set once in [create] *)
  mutable timed_seq : int;             (* Karn: seq being timed, -1 none *)
  mutable timed_at : float;
  mutable retransmitted : Seq_set.t;
  (* --- statistics --- *)
  mutable packets_sent : int;
  mutable timeouts : int;
  mutable fast_retransmits : int;
  events : Loss_events.t;
  rtt_acc : Ebrc_stats.Welford.t;
  mutable on_rate_sample : float -> unit;
}

let set_transmit t f = t.transmit <- f
let set_rate_sample_hook t f = t.on_rate_sample <- f

let flight_size t = t.snd_nxt - t.snd_una

let window t = Float.min t.cwnd t.max_window

(* --- loss-event accounting (paper definition) --- *)

(* p′ counts new segments sent, and its window follows the RTT
   estimate at the indication: srtt, or the RTO before the first
   sample. *)
let note_congestion_event t =
  let window = if t.srtt > 0.0 then t.srtt else t.rto in
  ignore
    (Loss_events.on_loss t.events ~now:(Engine.now t.engine) ~window
       ~count:t.packets_sent)

(* --- RTO timer --- *)

let arm_timer t =
  Engine.arm_after t.engine t.rto_timer ~delay:(t.rto *. float_of_int t.backoff)

let send_segment t ~seq ~retransmission =
  let now = Engine.now t.engine in
  let pkt = Packet.data ~flow:t.flow ~seq ~size:t.packet_size ~sent_at:now in
  if retransmission then begin
    Seq_set.add t.retransmitted seq;
    (* Karn: never time a retransmitted segment. *)
    if t.timed_seq = seq then t.timed_seq <- -1
  end
  else begin
    t.packets_sent <- t.packets_sent + 1;
    if t.timed_seq < 0 then begin
      t.timed_seq <- seq;
      t.timed_at <- now
    end
  end;
  t.transmit pkt

let try_send t =
  let w = int_of_float (window t) in
  let sent_any = ref false in
  while flight_size t < w do
    send_segment t ~seq:t.snd_nxt ~retransmission:false;
    t.snd_nxt <- t.snd_nxt + 1;
    sent_any := true
  done;
  if !sent_any && not (Engine.armed t.rto_timer) then arm_timer t

let on_timeout t =
  if flight_size t > 0 then begin
    t.timeouts <- t.timeouts + 1;
    if Tm.is_on () then
      Tm.event "tcp.timeout" ~time:(Engine.now t.engine) ~flow:t.flow
        ~value:t.cwnd;
    note_congestion_event t;
    t.ssthresh <- Float.max (float_of_int (flight_size t) /. 2.0) 2.0;
    t.cwnd <- 1.0;
    t.phase <- Slow_start;
    t.dup_acks <- 0;
    t.recover <- t.snd_nxt - 1;
    t.backoff <- min (t.backoff * 2) 64;
    t.timed_seq <- -1;
    (* Go-back-N: forget the outstanding window and refill from the
       first hole as the window re-opens; the receiver discards stale
       duplicates and its cumulative ACKs fast-forward over the segments
       it already holds. *)
    send_segment t ~seq:t.snd_una ~retransmission:true;
    t.snd_nxt <- t.snd_una + 1;
    arm_timer t
  end

(* Initial window, packets, and minimum RTO, seconds (the ns-2
   default). *)
let initial_cwnd = 2.0
let min_rto = 0.2

let create ?(packet_size = 1000) ?(max_window = 1e9) ?(variant = Reno)
    ~engine ~flow () =
  if packet_size <= 0 then invalid_arg "Tcp_sender.create: packet_size <= 0";
  let t =
  {
    engine;
    flow;
    variant;
    packet_size;
    transmit = (fun _ -> ());
    cwnd = initial_cwnd;
    ssthresh = 1e9;
    max_window;
    snd_una = 0;
    snd_nxt = 0;
    dup_acks = 0;
    phase = Slow_start;
    recover = -1;
    srtt = 0.0;
    rttvar = 0.0;
    rto = 1.0;
    backoff = 1;
    rto_timer = Engine.timer ignore;
    timed_seq = -1;
    timed_at = 0.0;
    retransmitted = Seq_set.create ~capacity:64 ();
    packets_sent = 0;
    timeouts = 0;
    fast_retransmits = 0;
    events = Loss_events.create ();
    rtt_acc = Ebrc_stats.Welford.create ();
    on_rate_sample = (fun _ -> ());
  }
  in
  t.rto_timer <- Engine.timer (fun () -> on_timeout t);
  let probes = engine.Engine.probes in
  Tm.Probe.add probes k_timeouts (fun () -> t.timeouts);
  Tm.Probe.add probes k_fast_retx (fun () -> t.fast_retransmits);
  (* Every timeout and every fast retransmit halves the window. *)
  Tm.Probe.add probes k_cwnd_halved (fun () ->
      t.timeouts + t.fast_retransmits);
  t

let update_rtt t sample =
  Ebrc_stats.Welford.add t.rtt_acc sample;
  if t.srtt = 0.0 then begin
    t.srtt <- sample;
    t.rttvar <- sample /. 2.0
  end
  else begin
    let alpha = 0.125 and beta = 0.25 in
    t.rttvar <-
      ((1.0 -. beta) *. t.rttvar) +. (beta *. abs_float (t.srtt -. sample));
    t.srtt <- ((1.0 -. alpha) *. t.srtt) +. (alpha *. sample)
  end;
  t.rto <- Float.max min_rto (t.srtt +. (4.0 *. t.rttvar))

let enter_fast_recovery t =
  t.fast_retransmits <- t.fast_retransmits + 1;
  if Tm.is_on () then
    Tm.event "tcp.fast_retransmit" ~time:(Engine.now t.engine) ~flow:t.flow
      ~value:t.cwnd;
  note_congestion_event t;
  t.ssthresh <- Float.max (float_of_int (flight_size t) /. 2.0) 2.0;
  (match t.variant with
  | Reno ->
      (* NewReno-style: halve and repair holes on partial ACKs. *)
      t.cwnd <- t.ssthresh;
      t.phase <- Fast_recovery;
      t.recover <- t.snd_nxt - 1
  | Tahoe ->
      (* Tahoe: fast retransmit exists but recovery restarts from a
         one-packet window in slow start (no fast recovery). *)
      t.cwnd <- 1.0;
      t.phase <- Slow_start;
      t.recover <- t.snd_nxt - 1;
      t.snd_nxt <- t.snd_una + 1);
  send_segment t ~seq:t.snd_una ~retransmission:true;
  arm_timer t

let on_ack t ~acked ~dup ~echo:_ =
  let now = Engine.now t.engine in
  if acked >= t.snd_una then begin
    (* New (or repeated-but-advancing) cumulative ACK. *)
    if acked >= t.snd_una && not dup then begin
      (* RTT sample via the timed segment (Karn's rule). *)
      if t.timed_seq >= 0 && acked >= t.timed_seq
         && not (Seq_set.mem t.retransmitted t.timed_seq) then begin
        update_rtt t (now -. t.timed_at);
        t.timed_seq <- -1
      end;
      let newly_acked = acked - t.snd_una + 1 in
      if newly_acked > 0 then begin
        t.snd_una <- acked + 1;
        t.backoff <- 1;
        t.dup_acks <- 0;
        (match t.phase with
        | Fast_recovery ->
            if acked >= t.recover then begin
              (* Full recovery: resume congestion avoidance. *)
              t.phase <- Congestion_avoidance;
              t.cwnd <- t.ssthresh
            end
            else
              (* Partial ACK: NewReno hole repair, window frozen. *)
              send_segment t ~seq:t.snd_una ~retransmission:true
        | Slow_start ->
            (* Appropriate byte counting with L = 2 (RFC 3465): grow by
               at most two segments per ACK, so a large cumulative ACK
               after a go-back-N restart cannot re-inflate the window
               past ssthresh in one step. *)
            t.cwnd <- t.cwnd +. Float.min (float_of_int newly_acked) 2.0;
            if t.cwnd >= t.ssthresh then t.phase <- Congestion_avoidance
        | Congestion_avoidance ->
            t.cwnd <- t.cwnd +. (float_of_int newly_acked /. t.cwnd));
        t.on_rate_sample (window t);
        if flight_size t > 0 then arm_timer t
        else Engine.disarm t.rto_timer;
        try_send t
      end
    end
  end
  else if dup then begin
    t.dup_acks <- t.dup_acks + 1;
    if t.dup_acks = 3 && t.phase <> Fast_recovery then enter_fast_recovery t
    else if t.phase = Fast_recovery then
      (* Window inflation substitute: allow one new segment per extra
         dup ACK to keep the pipe from draining. *)
      try_send t
  end

let start t = try_send t

(* --- observers --- *)

let cwnd t = t.cwnd
let ssthresh t = t.ssthresh
let phase t = t.phase
let packets_sent t = t.packets_sent
let timeouts t = t.timeouts
let fast_retransmits t = t.fast_retransmits
let loss_events t = t.events
let srtt t = t.srtt
let mean_rtt t = Ebrc_stats.Welford.mean t.rtt_acc

