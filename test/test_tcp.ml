(* Tests for the TCP model: a loopback harness wires a sender and a
   receiver through a configurable path (delay + optional dropper) and
   checks window dynamics, loss recovery, RTT estimation and loss-event
   accounting. *)

module E = Ebrc.Engine
module P = Ebrc.Packet
module LM = Ebrc.Loss_module
module TS = Ebrc.Tcp_sender
module LE = Ebrc.Loss_events
module TR = Ebrc.Tcp_receiver
module Prng = Ebrc.Prng

(* Loopback: data goes through [dropper] and arrives after [delay]/2;
   ACKs return after [delay]/2. Max in-flight bandwidth is unbounded
   (the path is pure delay), so cwnd growth is limited only by losses
   and max_window. *)
let loopback ?(delay = 0.1) ?(dropper = LM.lossless ()) ?(max_window = 1e9)
    ?(run_until = 30.0) () =
  let engine = E.create () in
  let sender = TS.create ~engine ~flow:0 ~max_window () in
  let receiver = TR.create ~engine ~flow:0 () in
  TS.set_transmit sender (fun pkt ->
      if LM.process dropper pkt then
        ignore
          (E.schedule_after engine ~delay:(delay /. 2.0) (fun () ->
               TR.on_data receiver pkt)));
  TR.set_ack_sink receiver (fun ~acked ~dup ~echo ->
      ignore
        (E.schedule_after engine ~delay:(delay /. 2.0) (fun () ->
             TS.on_ack sender ~acked ~dup ~echo)));
  ignore (E.schedule engine ~at:0.0 (fun () -> TS.start sender));
  ignore (E.run ~until:run_until engine);
  (sender, receiver)

let events sender = LE.events (TS.loss_events sender)
let intervals sender = LE.intervals (TS.loss_events sender) ~since:0

let test_lossless_transfer_progresses () =
  let sender, receiver = loopback ~max_window:200.0 ~run_until:5.0 () in
  Alcotest.(check bool) "packets sent" true (TS.packets_sent sender > 100);
  Alcotest.(check bool) "receiver advanced" true (TR.expected receiver > 100);
  Alcotest.(check int) "no timeouts" 0 (TS.timeouts sender);
  Alcotest.(check int) "no fast retransmits" 0 (TS.fast_retransmits sender);
  Alcotest.(check int) "no loss events" 0 (events sender)

let test_slow_start_doubles () =
  (* In slow start, cwnd grows by the number of newly acked packets:
     roughly doubling each RTT despite delayed ACKs. *)
  let sender, _ = loopback ~max_window:5000.0 ~run_until:1.0 () in
  (* After ~10 RTTs of 0.1 s the window should be large. *)
  Alcotest.(check bool)
    (Printf.sprintf "cwnd %.0f > 100" (TS.cwnd sender))
    true
    (TS.cwnd sender > 100.0)

let test_rtt_estimate_converges () =
  let sender, _ = loopback ~delay:0.2 ~max_window:100.0 ~run_until:5.0 () in
  (* RTT = 0.2 propagation (+ delayed-ack hold for some samples). *)
  Alcotest.(check bool)
    (Printf.sprintf "srtt %.3f in [0.2, 0.35)" (TS.srtt sender))
    true
    (TS.srtt sender >= 0.2 -. 1e-9 && TS.srtt sender < 0.35)

let test_fast_retransmit_on_single_loss () =
  (* Drop exactly one packet mid-stream: recovery must use fast
     retransmit (3 dup ACKs), not a timeout. *)
  let count = ref 0 in
  (* Custom dropper: drop the 150th data packet only. *)
  let custom_pass (pkt : P.t) =
    ignore pkt;
    incr count;
    !count <> 150
  in
  let engine = E.create () in
  let sender = TS.create ~engine ~flow:0 ~max_window:64.0 () in
  let receiver = TR.create ~engine ~flow:0 () in
  TS.set_transmit sender (fun pkt ->
      if custom_pass pkt then
        ignore
          (E.schedule_after engine ~delay:0.05 (fun () ->
               TR.on_data receiver pkt)));
  TR.set_ack_sink receiver (fun ~acked ~dup ~echo ->
      ignore
        (E.schedule_after engine ~delay:0.05 (fun () ->
             TS.on_ack sender ~acked ~dup ~echo)));
  ignore (E.schedule engine ~at:0.0 (fun () -> TS.start sender));
  ignore (E.run ~until:10.0 engine);
  Alcotest.(check int) "one fast retransmit" 1 (TS.fast_retransmits sender);
  Alcotest.(check int) "no timeouts" 0 (TS.timeouts sender);
  Alcotest.(check int) "one loss event" 1 (events sender);
  (* The stream must keep progressing after recovery. *)
  Alcotest.(check bool) "recovered" true (TR.expected receiver > 200)

let test_halving_on_fast_retransmit () =
  (* cwnd after recovery should be about half the pre-loss flight. *)
  let count = ref 0 in
  let engine = E.create () in
  let sender = TS.create ~engine ~flow:0 ~max_window:64.0 () in
  let receiver = TR.create ~engine ~flow:0 () in
  let cwnd_before = ref 0.0 in
  TS.set_transmit sender (fun pkt ->
      incr count;
      if !count = 400 then cwnd_before := TS.window sender;
      if !count <> 400 then
        ignore
          (E.schedule_after engine ~delay:0.05 (fun () ->
               TR.on_data receiver pkt)));
  TR.set_ack_sink receiver (fun ~acked ~dup ~echo ->
      ignore
        (E.schedule_after engine ~delay:0.05 (fun () ->
             TS.on_ack sender ~acked ~dup ~echo)));
  ignore (E.schedule engine ~at:0.0 (fun () -> TS.start sender));
  ignore (E.run ~until:60.0 engine);
  (* At the loss the window was max (64); afterwards ssthresh ~ 32. *)
  Alcotest.(check bool)
    (Printf.sprintf "ssthresh %.0f ~ half of %.0f" (TS.ssthresh sender)
       !cwnd_before)
    true
    (TS.ssthresh sender <= (!cwnd_before /. 2.0) +. 2.0
    && TS.ssthresh sender >= (!cwnd_before /. 4.0) -. 2.0)

let test_timeout_on_burst_loss () =
  (* Drop a long burst so dup ACKs cannot arrive: the sender must fall
     back to a timeout and keep going. *)
  let dropped_once = Hashtbl.create 64 in
  let engine = E.create () in
  let sender = TS.create ~engine ~flow:0 ~max_window:32.0 () in
  let receiver = TR.create ~engine ~flow:0 () in
  TS.set_transmit sender (fun pkt ->
      (* Drop sequences 50..120 - a burst longer than the window - but
         only on first transmission, so recovery can proceed. *)
      let burst = pkt.P.seq >= 50 && pkt.P.seq <= 120 in
      let fresh = burst && not (Hashtbl.mem dropped_once pkt.P.seq) in
      if fresh then Hashtbl.replace dropped_once pkt.P.seq ();
      if not fresh then
        ignore
          (E.schedule_after engine ~delay:0.02 (fun () ->
               TR.on_data receiver pkt)));
  TR.set_ack_sink receiver (fun ~acked ~dup ~echo ->
      ignore
        (E.schedule_after engine ~delay:0.02 (fun () ->
             TS.on_ack sender ~acked ~dup ~echo)));
  ignore (E.schedule engine ~at:0.0 (fun () -> TS.start sender));
  ignore (E.run ~until:30.0 engine);
  Alcotest.(check bool) "at least one timeout" true (TS.timeouts sender >= 1);
  Alcotest.(check bool) "stream recovered" true (TR.expected receiver > 200)

let test_random_loss_long_run_stable () =
  let rng = Prng.create ~seed:8 in
  let dropper = LM.bernoulli rng ~p:0.01 in
  let sender, receiver = loopback ~dropper ~max_window:1000.0 ~run_until:120.0 () in
  Alcotest.(check bool) "many loss events" true (events sender > 20);
  Alcotest.(check bool) "receiver advanced" true (TR.expected receiver > 2000);
  let p = LE.rate (TS.loss_events sender) ~since:0 in
  Alcotest.(check bool)
    (Printf.sprintf "loss-event rate %.4f in (0.001, 0.02)" p)
    true
    (p > 0.001 && p < 0.02);
  (* Loss events aggregate bursts: rate at most the packet drop rate. *)
  let ivs = intervals sender in
  Alcotest.(check int) "intervals = events - 1" (events sender - 1)
    (Array.length ivs)

let test_loss_event_intervals_positive () =
  let rng = Prng.create ~seed:9 in
  let dropper = LM.bernoulli rng ~p:0.02 in
  let sender, _ = loopback ~dropper ~max_window:1000.0 ~run_until:60.0 () in
  Array.iter
    (fun iv -> Alcotest.(check bool) "interval >= 0" true (iv >= 0.0))
    (intervals sender)

(* p′'s window follows srtt: the RTO, three srtt after the first
   sample, fires first, and three duplicate ACKs come 0.3 s after it.
   With srtt = 0.8 s the two indications form one loss event; with
   srtt = 0.1 s they form two. *)
let test_loss_event_window_follows_srtt () =
  let run ~first_ack =
    let engine = E.create () in
    let sender = TS.create ~engine ~flow:0 () in
    TS.set_transmit sender ignore;
    let at t f = E.schedule_unit engine ~at:t f in
    let ack ~dup () = TS.on_ack sender ~acked:0 ~dup ~echo:0.0 in
    at 0.0 (fun () -> TS.start sender);
    at first_ack (ack ~dup:false);
    let dup_at = (4.0 *. first_ack) +. 0.3 in
    for _ = 1 to 3 do at dup_at (ack ~dup:true) done;
    ignore (E.run ~until:(dup_at +. 0.1) engine);
    Alcotest.(check (float 1e-12)) "srtt" first_ack (TS.srtt sender);
    Alcotest.(check int) "one timeout" 1 (TS.timeouts sender);
    Alcotest.(check int) "one fast retransmit" 1 (TS.fast_retransmits sender);
    events sender
  in
  Alcotest.(check int) "srtt 0.8 s: one event" 1 (run ~first_ack:0.8);
  Alcotest.(check int) "srtt 0.1 s: two events" 2 (run ~first_ack:0.1)

let test_max_window_respected () =
  let sender, _ = loopback ~max_window:10.0 ~run_until:10.0 () in
  Alcotest.(check bool)
    (Printf.sprintf "window %.1f <= 10" (TS.window sender))
    true
    (TS.window sender <= 10.0 +. 1e-9)

let test_mean_rtt_accumulates () =
  let sender, _ = loopback ~delay:0.1 ~max_window:100.0 ~run_until:5.0 () in
  Alcotest.(check bool) "mean rtt sane" true
    (TS.mean_rtt sender >= 0.1 -. 1e-9 && TS.mean_rtt sender < 0.3)

let test_receiver_delayed_ack_b2 () =
  (* With b = 2, roughly one ACK per two data packets on a clean path. *)
  let engine = E.create () in
  let receiver = TR.create ~engine ~flow:0 () in
  let acks = ref 0 in
  TR.set_ack_sink receiver (fun ~acked:_ ~dup:_ ~echo:_ -> incr acks);
  ignore
    (E.schedule engine ~at:0.0 (fun () ->
         for i = 0 to 99 do
           TR.on_data receiver (P.data ~flow:0 ~seq:i ~size:1000 ~sent_at:0.0)
         done));
  ignore (E.run engine);
  Alcotest.(check int) "50 acks for 100 packets" 50 !acks

let test_receiver_dup_acks_on_gap () =
  let engine = E.create () in
  let receiver = TR.create ~engine ~flow:0 () in
  let dups = ref 0 in
  TR.set_ack_sink receiver (fun ~acked:_ ~dup ~echo:_ ->
      if dup then incr dups);
  ignore
    (E.schedule engine ~at:0.0 (fun () ->
         TR.on_data receiver (P.data ~flow:0 ~seq:0 ~size:1000 ~sent_at:0.0);
         TR.on_data receiver (P.data ~flow:0 ~seq:1 ~size:1000 ~sent_at:0.0);
         (* gap: 2 missing *)
         TR.on_data receiver (P.data ~flow:0 ~seq:3 ~size:1000 ~sent_at:0.0);
         TR.on_data receiver (P.data ~flow:0 ~seq:4 ~size:1000 ~sent_at:0.0);
         TR.on_data receiver (P.data ~flow:0 ~seq:5 ~size:1000 ~sent_at:0.0)));
  ignore (E.run engine);
  Alcotest.(check int) "three dup acks" 3 !dups;
  Alcotest.(check int) "expected still 2" 2 (TR.expected receiver)

let test_receiver_gap_fill_acks_immediately () =
  let engine = E.create () in
  let receiver = TR.create ~engine ~flow:0 () in
  let last_ack = ref (-1) in
  TR.set_ack_sink receiver (fun ~acked ~dup ~echo:_ ->
      if not dup then last_ack := acked);
  ignore
    (E.schedule engine ~at:0.0 (fun () ->
         TR.on_data receiver (P.data ~flow:0 ~seq:0 ~size:1000 ~sent_at:0.0);
         TR.on_data receiver (P.data ~flow:0 ~seq:2 ~size:1000 ~sent_at:0.0);
         TR.on_data receiver (P.data ~flow:0 ~seq:3 ~size:1000 ~sent_at:0.0);
         (* Filling the hole must trigger an immediate cumulative ACK. *)
         TR.on_data receiver (P.data ~flow:0 ~seq:1 ~size:1000 ~sent_at:0.0)));
  ignore (E.run engine);
  Alcotest.(check int) "cumulative ack covers buffered" 3 !last_ack

let test_delack_timer_fires_for_single_segment () =
  let engine = E.create () in
  let receiver = TR.create ~delack_timeout:0.1 ~engine ~flow:0 () in
  let acks = ref 0 in
  TR.set_ack_sink receiver (fun ~acked:_ ~dup:_ ~echo:_ -> incr acks);
  ignore
    (E.schedule engine ~at:0.0 (fun () ->
         TR.on_data receiver (P.data ~flow:0 ~seq:0 ~size:1000 ~sent_at:0.0)));
  ignore (E.run ~until:1.0 engine);
  Alcotest.(check int) "delayed ack fired" 1 !acks

(* ------------------------- properties -------------------------- *)

let prop_reliable_under_random_loss =
  QCheck.Test.make ~name:"no receiver gap survives under random loss"
    ~count:10
    QCheck.(pair small_nat (float_range 0.0 0.05))
    (fun (seed, p) ->
      let rng = Prng.create ~seed in
      let dropper = LM.bernoulli rng ~p in
      let _, receiver = loopback ~dropper ~max_window:500.0 ~run_until:20.0 () in
      (* The receiver's expected pointer must move: reliability holds. *)
      TR.expected receiver > 50)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_reliable_under_random_loss ]

(* ------------------------- Seq_set ------------------------- *)

let test_seq_set_basics () =
  let s = Ebrc.Seq_set.create ~capacity:4 () in
  Alcotest.(check bool) "empty" false (Ebrc.Seq_set.mem s 0);
  Ebrc.Seq_set.add s 5;
  Ebrc.Seq_set.add s 5;
  Ebrc.Seq_set.add s 0;
  Alcotest.(check int) "idempotent add" 2 (Ebrc.Seq_set.cardinal s);
  Alcotest.(check bool) "mem 5" true (Ebrc.Seq_set.mem s 5);
  Ebrc.Seq_set.remove s 5;
  Ebrc.Seq_set.remove s 5;
  Alcotest.(check bool) "removed" false (Ebrc.Seq_set.mem s 5);
  Alcotest.(check int) "cardinal after remove" 1 (Ebrc.Seq_set.cardinal s);
  (match Ebrc.Seq_set.add s (-1) with
  | () -> Alcotest.fail "expected Invalid_argument (negative)"
  | exception Invalid_argument _ -> ())

let test_seq_set_tombstone_no_duplicate () =
  (* Regression: a key displaced past a slot that later becomes a
     tombstone must not be re-inserted into the tombstone as a
     duplicate. 5 and 21 share home slot 5 with capacity 16; removing
     5 leaves a tombstone on 21's probe path. *)
  let s = Ebrc.Seq_set.create ~capacity:16 () in
  Ebrc.Seq_set.add s 5;
  Ebrc.Seq_set.add s 21;
  Ebrc.Seq_set.remove s 5;
  Ebrc.Seq_set.add s 21;
  Alcotest.(check int) "no duplicate via tombstone" 1 (Ebrc.Seq_set.cardinal s);
  Ebrc.Seq_set.remove s 21;
  Alcotest.(check bool) "fully removed" false (Ebrc.Seq_set.mem s 21);
  Alcotest.(check int) "empty" 0 (Ebrc.Seq_set.cardinal s);
  (* The tombstone slot is still reused when the key really is absent. *)
  Ebrc.Seq_set.add s 21;
  Alcotest.(check bool) "re-add after churn" true (Ebrc.Seq_set.mem s 21);
  Alcotest.(check int) "single entry" 1 (Ebrc.Seq_set.cardinal s)

let test_seq_set_growth_and_churn () =
  (* Grow far past the initial capacity, then churn adds/removes so
     tombstone rehashing gets exercised; the set must agree with a
     reference implementation throughout. *)
  let s = Ebrc.Seq_set.create ~capacity:4 () in
  let ref_tbl = Hashtbl.create 64 in
  let rng = Ebrc.Prng.create ~seed:11 in
  for _ = 1 to 5_000 do
    let v = Ebrc.Prng.int rng 300 in
    if Ebrc.Prng.bool rng then begin
      Ebrc.Seq_set.add s v;
      Hashtbl.replace ref_tbl v ()
    end
    else begin
      Ebrc.Seq_set.remove s v;
      Hashtbl.remove ref_tbl v
    end
  done;
  Alcotest.(check int) "cardinal matches reference"
    (Hashtbl.length ref_tbl) (Ebrc.Seq_set.cardinal s);
  for v = 0 to 299 do
    Alcotest.(check bool)
      (Printf.sprintf "membership of %d" v)
      (Hashtbl.mem ref_tbl v) (Ebrc.Seq_set.mem s v)
  done

(* Model check against [Set.Make (Int)]. Each step adds, removes
   (ascending or descending) or looks up a run of consecutive keys —
   the shape of TCP sequence numbers — starting a few keys before an
   anchor. The anchors share home slots modulo every table size the
   set reaches, so runs collide and wrap round the table's end, and
   long runs grow the table from its 16-slot start. After every single
   operation, [mem] of the touched key and its two neighbours and the
   [cardinal] must agree with the model. *)
module Int_set = Set.Make (Int)

let prop_seq_set_model =
  let anchors = [| 0; 16; 48; 64; 128; 1024 |] in
  QCheck.Test.make ~name:"seq_set agrees with Set.Make (Int)" ~count:300
    QCheck.(
      list_of_size
        Gen.(int_range 1 40)
        (quad (int_range 0 3) (int_range 0 5) (int_range 0 7)
           (int_range 1 24)))
    (fun steps ->
      let s = Ebrc.Seq_set.create ~capacity:16 () in
      let model = ref Int_set.empty in
      let agrees k =
        List.for_all
          (fun j ->
            j < 0 || Ebrc.Seq_set.mem s j = Int_set.mem j !model)
          [ k - 1; k; k + 1 ]
        && Ebrc.Seq_set.cardinal s = Int_set.cardinal !model
      in
      List.for_all
        (fun (kind, a, off, len) ->
          let base = max 0 (anchors.(a) - 4 + off) in
          let keys = List.init len (fun i -> base + i) in
          let keys = if kind = 2 then List.rev keys else keys in
          List.for_all
            (fun k ->
              (match kind with
               | 0 ->
                   Ebrc.Seq_set.add s k;
                   model := Int_set.add k !model
               | 1 | 2 ->
                   Ebrc.Seq_set.remove s k;
                   model := Int_set.remove k !model
               | _ -> ());
              agrees k)
            keys)
        steps
      && Int_set.for_all (Ebrc.Seq_set.mem s) !model)

let () =
  Alcotest.run "tcp"
    [
      ( "seq_set",
        [
          Alcotest.test_case "basics" `Quick test_seq_set_basics;
          Alcotest.test_case "tombstone no duplicate" `Quick
            test_seq_set_tombstone_no_duplicate;
          Alcotest.test_case "growth and churn" `Quick
            test_seq_set_growth_and_churn;
          QCheck_alcotest.to_alcotest prop_seq_set_model;
        ] );
      ( "sender",
        [
          Alcotest.test_case "lossless progress" `Quick test_lossless_transfer_progresses;
          Alcotest.test_case "slow start" `Quick test_slow_start_doubles;
          Alcotest.test_case "rtt estimate" `Quick test_rtt_estimate_converges;
          Alcotest.test_case "fast retransmit" `Quick test_fast_retransmit_on_single_loss;
          Alcotest.test_case "halving" `Quick test_halving_on_fast_retransmit;
          Alcotest.test_case "timeout on burst" `Quick test_timeout_on_burst_loss;
          Alcotest.test_case "random loss stable" `Quick test_random_loss_long_run_stable;
          Alcotest.test_case "intervals positive" `Quick test_loss_event_intervals_positive;
          Alcotest.test_case "loss-event window follows srtt" `Quick
            test_loss_event_window_follows_srtt;
          Alcotest.test_case "max window" `Quick test_max_window_respected;
          Alcotest.test_case "mean rtt" `Quick test_mean_rtt_accumulates;
        ] );
      ( "receiver",
        [
          Alcotest.test_case "delayed acks b=2" `Quick test_receiver_delayed_ack_b2;
          Alcotest.test_case "dup acks on gap" `Quick test_receiver_dup_acks_on_gap;
          Alcotest.test_case "gap fill immediate ack" `Quick test_receiver_gap_fill_acks_immediately;
          Alcotest.test_case "delack timer" `Quick test_delack_timer_fires_for_single_segment;
        ] );
      ("properties", qsuite);
    ]
