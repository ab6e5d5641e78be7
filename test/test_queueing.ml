(* Queueing-theoretic validation of the simulator substrate: the link
   model must agree with classic closed forms where they exist.

   - M/D/1: Poisson arrivals into a fixed-rate server give mean waiting
     time Wq = rho * s / (2 (1 - rho)) with s the (deterministic)
     service time.
   - Little's law: mean queue occupancy equals arrival rate times mean
     sojourn.
   - The PFTK formula itself: simulated TCP under memoryless loss at
     rate p must land near f(p, rtt) — the validation the PFTK paper
     performed against real traces, rerun against our TCP model. *)

module E = Ebrc.Engine
module P = Ebrc.Packet
module QD = Ebrc.Queue_discipline
module Link = Ebrc.Link
module PS = Ebrc.Probe_source
module Prng = Ebrc.Prng

let close ?(tol = 0.1) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.5g within %g%% of %.5g" name actual (tol *. 100.0)
       expected)
    true
    (abs_float (actual -. expected) <= tol *. (abs_float expected +. 1e-9))

(* Drive a Poisson stream at utilisation [rho] into a 1000-byte/packet
   link and measure per-packet sojourn (arrival at the queue to delivery,
   minus propagation). *)
let run_md1 ~rho ~seed ~duration =
  let engine = E.create () in
  let rate_bps = 8e6 in
  let service = 8000.0 /. rate_bps in (* 1 ms *)
  let queue = QD.create ~capacity:100_000 QD.Drop_tail in
  let link =
    Link.create ~engine ~rate_bps ~delay:0.0 ~queue
      ~rng:(Prng.create ~seed:(seed + 1))
  in
  let src =
    PS.create ~engine ~flow:0
      ~rate:(rho /. service)
      ~pacing:(PS.Poisson (Prng.create ~seed))
      ()
  in
  let sojourns = ref [] in
  PS.set_transmit src (fun pkt -> Link.send link pkt);
  Link.set_deliver link (fun pkt ->
      sojourns := (E.now engine -. P.sent_at pkt) :: !sojourns);
  ignore (E.schedule engine ~at:0.0 (fun () -> PS.start src));
  ignore (E.run ~until:duration engine);
  let mean_sojourn = Ebrc.Descriptive.mean (Array.of_list !sojourns) in
  (service, mean_sojourn)

let test_md1_waiting_time_moderate_load () =
  let rho = 0.5 in
  let service, mean_sojourn = run_md1 ~rho ~seed:3 ~duration:2000.0 in
  (* Pollaczek-Khinchine for M/D/1: Wq = rho s / (2 (1 - rho)). *)
  let wq = rho *. service /. (2.0 *. (1.0 -. rho)) in
  close ~tol:0.05 "mean sojourn" (service +. wq) mean_sojourn

let test_md1_waiting_time_high_load () =
  let rho = 0.8 in
  let service, mean_sojourn = run_md1 ~rho ~seed:4 ~duration:4000.0 in
  let wq = rho *. service /. (2.0 *. (1.0 -. rho)) in
  close ~tol:0.1 "mean sojourn" (service +. wq) mean_sojourn

let test_md1_low_load_no_queueing () =
  let service, mean_sojourn = run_md1 ~rho:0.05 ~seed:5 ~duration:500.0 in
  (* Almost no waiting: sojourn ~ service. *)
  close ~tol:0.05 "sojourn ~ service" (service *. 1.026) mean_sojourn

let test_littles_law () =
  (* N = lambda W with the occupancy sampled on an independent
     fine-grained clock (the arrival-epoch left-endpoint sum is biased
     low because departures drain the queue between arrivals). *)
  let rho = 0.7 in
  let engine = E.create () in
  let rate_bps = 8e6 in
  let service = 8000.0 /. rate_bps in
  let queue = QD.create ~capacity:100_000 QD.Drop_tail in
  let link =
    Link.create ~engine ~rate_bps ~delay:0.0 ~queue ~rng:(Prng.create ~seed:7)
  in
  let src =
    PS.create ~engine ~flow:0
      ~rate:(rho /. service)
      ~pacing:(PS.Poisson (Prng.create ~seed:6))
      ()
  in
  let sojourns = ref [] and arrivals = ref 0 in
  PS.set_transmit src (fun pkt ->
      incr arrivals;
      Link.send link pkt);
  Link.set_deliver link (fun pkt ->
      sojourns := (E.now engine -. P.sent_at pkt) :: !sojourns);
  let occ_sum = ref 0.0 and occ_n = ref 0 in
  let rec sample () =
    occ_sum := !occ_sum +. float_of_int (QD.occupancy queue);
    incr occ_n;
    ignore (E.schedule_after engine ~delay:(service /. 3.0) (fun () -> sample ()))
  in
  ignore (E.schedule engine ~at:0.0 (fun () -> PS.start src));
  ignore (E.schedule engine ~at:0.0 (fun () -> sample ()));
  let duration = 500.0 in
  ignore (E.run ~until:duration engine);
  let mean_sojourn = Ebrc.Descriptive.mean (Array.of_list !sojourns) in
  let mean_occupancy = !occ_sum /. float_of_int !occ_n in
  let arrival_rate = float_of_int !arrivals /. duration in
  close ~tol:0.1 "Little's law" (arrival_rate *. mean_sojourn) mean_occupancy

(* ---------------- PFTK formula vs simulated TCP ------------------ *)

let run_tcp_under_bernoulli_loss ~p ~seed ~duration =
  let module TS = Ebrc.Tcp_sender in
  let module TR = Ebrc.Tcp_receiver in
  let module LM = Ebrc.Loss_module in
  let engine = E.create () in
  let rng = Prng.create ~seed in
  let dropper = LM.bernoulli rng ~p in
  let sender = TS.create ~max_window:2000.0 ~engine ~flow:0 () in
  let receiver = TR.create ~engine ~flow:0 () in
  let delay = 0.05 in
  TS.set_transmit sender (fun pkt ->
      if LM.process dropper pkt then
        ignore
          (E.schedule_after engine ~delay (fun () -> TR.on_data receiver pkt)));
  TR.set_ack_sink receiver (fun ~acked ~dup ~echo ->
      ignore
        (E.schedule_after engine ~delay (fun () ->
             TS.on_ack sender ~acked ~dup ~echo)));
  ignore (E.schedule engine ~at:0.0 (fun () -> TS.start sender));
  ignore (E.run ~until:duration engine);
  let throughput = float_of_int (TR.received receiver) /. duration in
  (throughput, Ebrc.Loss_events.rate (TS.loss_events sender) ~since:0,
   TS.mean_rtt sender)

let test_tcp_matches_pftk_shape () =
  (* The PFTK paper validated f against measured TCP; we rerun that
     against our TCP model: for memoryless per-packet loss, measured
     throughput must be within a factor ~2 of f(p_events, rtt) across
     two decades of loss rate, and ordered in p. *)
  let check p =
    let x, p_events, rtt = run_tcp_under_bernoulli_loss ~p ~seed:8 ~duration:600.0 in
    Alcotest.(check bool) "saw events" true (p_events > 0.0);
    let f =
      Ebrc.Formula.eval
        (Ebrc.Formula.create ~rtt Ebrc.Formula.Pftk_standard)
        p_events
    in
    let ratio = x /. f in
    Alcotest.(check bool)
      (Printf.sprintf "p=%.3f: x=%.1f f=%.1f ratio=%.2f in [0.5, 2]" p x f
         ratio)
      true
      (ratio > 0.5 && ratio < 2.0);
    x
  in
  let x1 = check 0.002 in
  let x2 = check 0.01 in
  let x3 = check 0.05 in
  Alcotest.(check bool)
    (Printf.sprintf "throughput ordered in p: %.1f > %.1f > %.1f" x1 x2 x3)
    true
    (x1 > x2 && x2 > x3)

let test_tcp_sqrt_scaling () =
  (* Quadrupling the loss rate should roughly halve throughput in the
     sqrt regime (small p). *)
  let x1, p1, _ = run_tcp_under_bernoulli_loss ~p:0.002 ~seed:9 ~duration:600.0 in
  let x2, p2, _ = run_tcp_under_bernoulli_loss ~p:0.008 ~seed:9 ~duration:600.0 in
  let expected_ratio = sqrt (p2 /. p1) in
  let measured_ratio = x1 /. x2 in
  Alcotest.(check bool)
    (Printf.sprintf "sqrt scaling: measured %.2f vs sqrt-law %.2f (50%%)"
       measured_ratio expected_ratio)
    true
    (abs_float (measured_ratio -. expected_ratio) < 0.5 *. expected_ratio)

let () =
  Alcotest.run "queueing"
    [
      ( "md1",
        [
          Alcotest.test_case "P-K at rho=0.5" `Quick test_md1_waiting_time_moderate_load;
          Alcotest.test_case "P-K at rho=0.8" `Quick test_md1_waiting_time_high_load;
          Alcotest.test_case "low load" `Quick test_md1_low_load_no_queueing;
          Alcotest.test_case "Little's law" `Quick test_littles_law;
        ] );
      ( "pftk_vs_tcp",
        [
          Alcotest.test_case "shape across p" `Quick test_tcp_matches_pftk_shape;
          Alcotest.test_case "sqrt scaling" `Quick test_tcp_sqrt_scaling;
        ] );
    ]
