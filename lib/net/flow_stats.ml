(* Per-flow measurement: packets and bytes received, loss events as
   defined by the paper (losses separated by less than one RTT belong to
   the same loss event) and loss-event intervals in packets. This is the
   "direct probing" instrumentation standing in for the paper's tcpdump
   post-processing. *)

module Floatbuf = Ebrc_stats.Floatbuf

type t = {
  rtt_hint : float;             (* loss-event aggregation window, seconds *)
  mutable received : int;
  mutable bytes_received : int;
  mutable lost : int;
  mutable loss_events : int;
  mutable last_loss_event_at : float;
  mutable packets_since_event : int;
  intervals : Floatbuf.t;       (* completed loss-event intervals, packets *)
  mutable first_recv_at : float;
  mutable last_recv_at : float;
}

let create ~rtt_hint =
  if rtt_hint <= 0.0 then invalid_arg "Flow_stats.create: rtt_hint <= 0";
  {
    rtt_hint;
    received = 0;
    bytes_received = 0;
    lost = 0;
    loss_events = 0;
    last_loss_event_at = neg_infinity;
    packets_since_event = 0;
    intervals = Floatbuf.create ();
    first_recv_at = nan;
    last_recv_at = nan;
  }

let on_receive t ~now ~bytes =
  t.received <- t.received + 1;
  t.bytes_received <- t.bytes_received + bytes;
  t.packets_since_event <- t.packets_since_event + 1;
  if Float.is_nan t.first_recv_at then t.first_recv_at <- now;
  t.last_recv_at <- now

let on_loss t ~now =
  t.lost <- t.lost + 1;
  (* Paper definition: a new loss event only if more than one RTT has
     elapsed since the previous loss event started. *)
  if now -. t.last_loss_event_at > t.rtt_hint then begin
    if t.loss_events > 0 then
      Floatbuf.add t.intervals (float_of_int t.packets_since_event);
    t.loss_events <- t.loss_events + 1;
    t.packets_since_event <- 0;
    t.last_loss_event_at <- now
  end

let received t = t.received
let lost t = t.lost
let loss_events t = t.loss_events

let loss_event_intervals t = Floatbuf.to_array t.intervals

let interval_count t = Floatbuf.length t.intervals

(* Loss-event rate as the paper defines it: 1 / E[theta], estimated as
   (number of completed intervals) / (total packets across them). *)
let loss_event_rate t =
  let n = Floatbuf.length t.intervals in
  if n = 0 then 0.0 else float_of_int n /. Floatbuf.sum t.intervals

let throughput_pps t =
  let d = t.last_recv_at -. t.first_recv_at in
  if Float.is_nan d || d <= 0.0 then 0.0
  else float_of_int (t.received - 1) /. d

let throughput_bps t =
  let d = t.last_recv_at -. t.first_recv_at in
  if Float.is_nan d || d <= 0.0 then 0.0
  else 8.0 *. float_of_int t.bytes_received /. d
