(* Tests for the TFRC protocol: loss-history semantics (RFC 3448 as the
   paper analyses them), receiver feedback, and the sender's rate law. *)

module E = Ebrc.Engine
module P = Ebrc.Packet
module LH = Ebrc.Loss_history
module LE = Ebrc.Loss_events
module TFS = Ebrc.Tfrc_sender
module TFR = Ebrc.Tfrc_receiver
module F = Ebrc.Formula
module LM = Ebrc.Loss_module
module Prng = Ebrc.Prng

let feq ?(eps = 1e-9) a b =
  Alcotest.(check bool)
    (Printf.sprintf "%.12g ~ %.12g" a b)
    true
    (abs_float (a -. b) <= eps *. (1.0 +. abs_float a +. abs_float b))

(* ------------------------- loss history ------------------------ *)

(* Feed sequences [0..n) with the listed seqs missing, one packet per
   [gap] seconds. *)
let feed_history ?(gap = 0.01) ?(comprehensive = false) ?(l = 8) ~rtt ~n
    ~missing () =
  let h = LH.create ~comprehensive ~l ~rtt () in
  let miss = List.sort_uniq compare missing in
  for seq = 0 to n - 1 do
    if not (List.mem seq miss) then
      LH.on_packet h ~now:(float_of_int seq *. gap) ~seq
  done;
  h

let events h = LE.events (LH.loss_events h)
let intervals h = LE.intervals (LH.loss_events h) ~since:0

let test_no_loss_no_events () =
  let h = feed_history ~rtt:0.1 ~n:100 ~missing:[] () in
  Alcotest.(check int) "no events" 0 (events h);
  feq (LH.p_estimate h) 0.0;
  Alcotest.(check int) "open interval counts" 100 (LH.open_interval h)

let test_single_gap_one_event () =
  let h = feed_history ~rtt:0.1 ~n:100 ~missing:[ 50 ] () in
  Alcotest.(check int) "one event" 1 (events h);
  Alcotest.(check int) "one lost" 1 (LH.total_lost h);
  (* One event: no completed interval yet, p still 0. *)
  Alcotest.(check int) "no completed intervals" 0
    (Array.length (intervals h))

let test_two_gaps_two_events_one_interval () =
  let h = feed_history ~rtt:0.05 ~n:200 ~missing:[ 50; 150 ] () in
  Alcotest.(check int) "two events" 2 (events h);
  let ivs = intervals h in
  Alcotest.(check int) "one interval" 1 (Array.length ivs);
  (* 99 packets received between the two events (51..149 ex 150). *)
  feq ivs.(0) 99.0

let test_losses_within_rtt_same_event () =
  (* Gap of 3 consecutive sequences: one loss event, 3 packets lost. *)
  let h = feed_history ~rtt:0.5 ~n:100 ~missing:[ 40; 41; 42 ] () in
  Alcotest.(check int) "one event" 1 (events h);
  Alcotest.(check int) "three lost" 3 (LH.total_lost h)

let test_losses_separated_by_rtt_distinct_events () =
  (* Two gaps 0.02 s apart with rtt 0.001: distinct events. *)
  let h = feed_history ~gap:0.02 ~rtt:0.001 ~n:100 ~missing:[ 30; 32 ] () in
  Alcotest.(check int) "two events" 2 (events h)

let test_p_estimate_periodic_loss () =
  (* Every 50th packet lost: intervals of ~49 received packets, so the
     WALI average converges near 49-50 and p ~ 1/50. *)
  let missing = List.init 20 (fun i -> 50 * (i + 1)) in
  let h = feed_history ~rtt:0.001 ~gap:0.01 ~n:1100 ~missing () in
  Alcotest.(check bool)
    (Printf.sprintf "p = %.4f ~ 0.02" (LH.p_estimate h))
    true
    (abs_float (LH.p_estimate h -. 0.02) < 0.002)

let test_comprehensive_open_interval_lowers_p () =
  (* After a long loss-free run, the comprehensive p drops below the
     basic p, never above. *)
  let missing = [ 10; 30 ] in
  let basic = feed_history ~comprehensive:false ~rtt:0.001 ~n:500 ~missing () in
  let compr = feed_history ~comprehensive:true ~rtt:0.001 ~n:500 ~missing () in
  Alcotest.(check bool)
    (Printf.sprintf "comprehensive %.4f <= basic %.4f" (LH.p_estimate compr)
       (LH.p_estimate basic))
    true
    (LH.p_estimate compr <= LH.p_estimate basic +. 1e-12);
  Alcotest.(check bool) "strictly lower after long run" true
    (LH.p_estimate compr < LH.p_estimate basic)

let test_estimate_pairs_semantics () =
  let h = feed_history ~rtt:0.001 ~n:400 ~missing:[ 50; 150; 250 ] () in
  let pairs = LH.estimate_pairs h ~since:0 in
  (* Events at 50,150,250: intervals complete at events 2 and 3, but the
     first interval has no preceding estimate (history empty). *)
  Alcotest.(check int) "one pair" 1 (Array.length pairs);
  let thetahat, theta = pairs.(0) in
  feq theta 99.0;
  feq thetahat 99.0 (* single-interval history estimates itself *)

let test_empirical_p () =
  let h = feed_history ~rtt:0.001 ~n:400 ~missing:[ 100; 200; 300 ] () in
  let ivs = intervals h in
  Alcotest.(check int) "two intervals" 2 (Array.length ivs);
  feq (LE.rate (LH.loss_events h) ~since:0)
    (2.0 /. Array.fold_left ( +. ) 0.0 ivs)

let test_set_rtt_changes_aggregation () =
  let h = LH.create ~l:8 ~rtt:10.0 () in
  LH.set_rtt h 0.001;
  LH.on_packet h ~now:0.0 ~seq:0;
  LH.on_packet h ~now:0.1 ~seq:2;   (* loss event 1 *)
  LH.on_packet h ~now:0.2 ~seq:4;   (* > rtt later: event 2 *)
  Alcotest.(check int) "two events with small rtt" 2 (events h)

(* ------------------- receiver / sender loop -------------------- *)

(* A zero-loss wiring of sender and receiver through a pure delay. *)
let wire ?(comprehensive = true) ?(conform = false) ?(dropper = LM.lossless ())
    ?(l = 8) ~delay ~run_until () =
  let engine = E.create () in
  let rtt = 2.0 *. delay in
  let formula = F.create ~rtt F.Pftk_standard in
  let sender =
    TFS.create ~conform_to_analysis:conform ~max_rate:2000.0 ~engine ~flow:0
      ~formula ()
  in
  let receiver = TFR.create ~comprehensive ~engine ~flow:0 ~l ~rtt () in
  TFS.set_transmit sender (fun pkt ->
      if LM.process dropper pkt then
        ignore
          (E.schedule_after engine ~delay (fun () -> TFR.on_data receiver pkt)));
  TFR.set_feedback_sink receiver (fun pkt ->
      ignore
        (E.schedule_after engine ~delay (fun () -> TFS.on_packet sender pkt)));
  ignore (E.schedule engine ~at:0.0 (fun () -> TFS.start sender));
  ignore (E.run ~until:run_until engine);
  (sender, receiver)

let test_sender_slow_start_doubles_without_loss () =
  (* Slow-start growth is delivery-limited: each doubling is capped at
     twice the reported receive rate, so the ramp from 1 pkt/s spends
     its first seconds waiting for packets to actually arrive (~16 pkt/s
     at t = 3) before compounding to the 2000 pkt/s cap by t = 5. *)
  let sender, _ = wire ~delay:0.05 ~run_until:5.0 () in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.1f > 500" (TFS.rate sender))
    true
    (TFS.rate sender > 500.0)

let test_sender_rate_follows_formula_after_loss () =
  let rng = Prng.create ~seed:3 in
  let dropper = LM.bernoulli rng ~p:0.02 in
  let sender, receiver = wire ~dropper ~delay:0.05 ~run_until:60.0 () in
  let p = LH.p_estimate (TFR.history receiver) in
  Alcotest.(check bool) "saw loss" true (p > 0.0);
  (* The sender's current rate must equal f(p_latest, srtt) within the
     feedback lag; compare loosely. *)
  let expected =
    F.eval (F.create ~rtt:(TFS.srtt sender) F.Pftk_standard) p
  in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.1f within 3x of f = %.1f" (TFS.rate sender)
       expected)
    true
    (TFS.rate sender > expected /. 3.0 && TFS.rate sender < expected *. 3.0)

let test_sender_rtt_estimate () =
  let sender, _ = wire ~delay:0.05 ~run_until:5.0 () in
  Alcotest.(check bool)
    (Printf.sprintf "srtt %.4f ~ 0.1" (TFS.srtt sender))
    true
    (abs_float (TFS.srtt sender -. 0.1) < 0.02)

let test_receiver_feedback_cadence () =
  let sender, _receiver = wire ~delay:0.05 ~run_until:5.0 () in
  (* One feedback per rtt (0.1 s) over ~5 s, plus the immediate first. *)
  let n = TFS.feedbacks sender in
  Alcotest.(check bool)
    (Printf.sprintf "feedbacks %d in [40, 60]" n)
    true
    (n >= 40 && n <= 60)

let test_conform_to_analysis_removes_cap () =
  (* With the receive-rate cap the no-loss growth is geometric but
     bounded by 2x the measured receive rate; in conforming mode growth
     is unbounded doubling, so the conforming sender is at least as
     fast. *)
  let capped, _ = wire ~conform:false ~delay:0.05 ~run_until:2.0 () in
  let free, _ = wire ~conform:true ~delay:0.05 ~run_until:2.0 () in
  Alcotest.(check bool)
    (Printf.sprintf "free %.1f >= capped %.1f" (TFS.rate free)
       (TFS.rate capped))
    true
    (TFS.rate free >= TFS.rate capped -. 1e-6)

let test_sender_stop () =
  let engine = E.create () in
  let sender =
    TFS.create ~engine ~flow:0 ~formula:(F.create ~rtt:0.1 F.Sqrt) ()
  in
  TFS.set_transmit sender (fun _ -> ());
  ignore (E.schedule engine ~at:0.0 (fun () -> TFS.start sender));
  ignore (E.schedule engine ~at:1.0 (fun () -> TFS.stop sender));
  ignore (E.run ~until:10.0 engine);
  let sent_at_stop = TFS.sent sender in
  Alcotest.(check bool) "stopped sending" true (sent_at_stop >= 1);
  (* initial rate 1 pkt/s for 1 s -> one or two packets *)
  Alcotest.(check bool) "not many" true (sent_at_stop <= 3)

let test_feedback_death_spiral_regression () =
  (* Regression for the stale-echo death spiral: even a flow that loses
     heavily early must keep a sane RTT estimate thanks to the hold-time
     correction. *)
  let rng = Prng.create ~seed:11 in
  let dropper = LM.bernoulli rng ~p:0.3 in
  let sender, _ = wire ~dropper ~delay:0.05 ~run_until:120.0 () in
  Alcotest.(check bool)
    (Printf.sprintf "srtt %.3f stays near 0.1" (TFS.srtt sender))
    true
    (TFS.srtt sender < 0.5)

(* ------------------------- properties -------------------------- *)

let prop_history_event_count_monotone =
  QCheck.Test.make ~name:"event count <= total losses" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 30) (int_range 1 300))
    (fun missing ->
      let h = feed_history ~rtt:0.001 ~n:400 ~missing () in
      events h <= LH.total_lost h + 1
      && LH.total_lost h <= List.length (List.sort_uniq compare missing))

let prop_p_estimate_bounded =
  QCheck.Test.make ~name:"p estimate in [0, 1]" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 50) (int_range 1 300))
    (fun missing ->
      let h = feed_history ~rtt:0.001 ~n:400 ~missing () in
      let p = LH.p_estimate h in
      p >= 0.0 && p <= 1.0)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_history_event_count_monotone; prop_p_estimate_bounded ]

let () =
  Alcotest.run "tfrc"
    [
      ( "loss_history",
        [
          Alcotest.test_case "no loss" `Quick test_no_loss_no_events;
          Alcotest.test_case "single gap" `Quick test_single_gap_one_event;
          Alcotest.test_case "two gaps" `Quick test_two_gaps_two_events_one_interval;
          Alcotest.test_case "burst = one event" `Quick test_losses_within_rtt_same_event;
          Alcotest.test_case "separated events" `Quick test_losses_separated_by_rtt_distinct_events;
          Alcotest.test_case "periodic loss p" `Quick test_p_estimate_periodic_loss;
          Alcotest.test_case "comprehensive lowers p" `Quick test_comprehensive_open_interval_lowers_p;
          Alcotest.test_case "estimate pairs" `Quick test_estimate_pairs_semantics;
          Alcotest.test_case "empirical p" `Quick test_empirical_p;
          Alcotest.test_case "set_rtt" `Quick test_set_rtt_changes_aggregation;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "slow-start growth" `Quick test_sender_slow_start_doubles_without_loss;
          Alcotest.test_case "rate follows formula" `Quick test_sender_rate_follows_formula_after_loss;
          Alcotest.test_case "rtt estimate" `Quick test_sender_rtt_estimate;
          Alcotest.test_case "feedback cadence" `Quick test_receiver_feedback_cadence;
          Alcotest.test_case "conform removes cap" `Quick test_conform_to_analysis_removes_cap;
          Alcotest.test_case "stop" `Quick test_sender_stop;
          Alcotest.test_case "death-spiral regression" `Quick test_feedback_death_spiral_regression;
        ] );
      ("properties", qsuite);
    ]
