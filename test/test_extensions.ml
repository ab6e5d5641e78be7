(* Tests for the extension layer: Student-t intervals, heavy-tailed and
   Gilbert loss processes, the TCP Tahoe variant, RED gentle mode, the
   report generator, and the two-router chain scenario. *)

module ST = Ebrc.Student_t
module LP = Ebrc.Loss_process
module D = Ebrc.Descriptive
module Prng = Ebrc.Prng

let feq ?(eps = 1e-9) a b =
  Alcotest.(check bool)
    (Printf.sprintf "%.12g ~ %.12g" a b)
    true
    (abs_float (a -. b) <= eps *. (1.0 +. abs_float a +. abs_float b))

let close ?(tol = 0.05) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.5g within %g%% of %.5g" name actual (tol *. 100.0)
       expected)
    true
    (abs_float (actual -. expected) <= tol *. (abs_float expected +. 1e-9))

(* -------------------------- Student-t --------------------------- *)

let test_t_quantiles_against_tables () =
  (* Standard table values: t_{0.975} for various df. *)
  List.iter
    (fun (df, expected) ->
      let q = ST.quantile ~df (0.975) in
      close ~tol:0.001 (Printf.sprintf "t(df=%g)" df) expected q)
    [ (1.0, 12.706); (2.0, 4.303); (5.0, 2.571); (10.0, 2.228);
      (30.0, 2.042); (1000.0, 1.962) ]

let test_t_cdf_symmetry () =
  List.iter
    (fun t -> feq ~eps:1e-9 (ST.cdf ~df:7.0 t +. ST.cdf ~df:7.0 (-.t)) 1.0)
    [ 0.0; 0.5; 1.3; 4.2 ]

let test_t_cdf_median () = feq (ST.cdf ~df:3.0 0.0) 0.5

let test_t_quantile_roundtrip () =
  List.iter
    (fun p -> feq ~eps:1e-6 (ST.cdf ~df:9.0 (ST.quantile ~df:9.0 p)) p)
    [ 0.05; 0.25; 0.5; 0.9; 0.99 ]

let test_log_gamma_factorials () =
  (* Gamma(n) = (n-1)! *)
  feq ~eps:1e-10 (ST.log_gamma 5.0) (log 24.0);
  feq ~eps:1e-10 (ST.log_gamma 1.0) 0.0;
  (* Gamma(1/2) = sqrt(pi). *)
  feq ~eps:1e-10 (ST.log_gamma 0.5) (0.5 *. log Float.pi)

let test_incomplete_beta_bounds () =
  feq (ST.incomplete_beta ~a:2.0 ~b:3.0 0.0) 0.0;
  feq (ST.incomplete_beta ~a:2.0 ~b:3.0 1.0) 1.0;
  (* I_x(1,1) = x. *)
  feq ~eps:1e-9 (ST.incomplete_beta ~a:1.0 ~b:1.0 0.37) 0.37

let test_mean_ci_contains_mean () =
  let xs = [| 9.0; 10.0; 11.0; 10.5; 9.5 |] in
  let mean, lo, hi = ST.mean_confidence_interval xs in
  feq mean 10.0;
  Alcotest.(check bool) "lo < mean < hi" true (lo < mean && mean < hi);
  (* 99% CI is wider than 90%. *)
  let _, lo99, hi99 = ST.mean_confidence_interval ~confidence:0.99 xs in
  let _, lo90, hi90 = ST.mean_confidence_interval ~confidence:0.90 xs in
  Alcotest.(check bool) "nested" true (lo99 < lo90 && hi90 < hi99)

let test_mean_ci_coverage () =
  (* Empirical coverage of the 90% CI on Gaussian samples ~ 90%. *)
  let rng = Prng.create ~seed:12 in
  let hits = ref 0 in
  let trials = 2000 in
  for _ = 1 to trials do
    let xs =
      Array.init 6 (fun _ -> Ebrc.Dist.normal rng ~mean:5.0 ~stddev:2.0)
    in
    let _, lo, hi = ST.mean_confidence_interval ~confidence:0.90 xs in
    if lo <= 5.0 && 5.0 <= hi then incr hits
  done;
  close ~tol:0.03 "coverage" 0.90 (float_of_int !hits /. float_of_int trials)

(* --------------------- new loss processes ----------------------- *)

let test_pareto_mean () =
  let rng = Prng.create ~seed:21 in
  let proc = LP.iid_pareto rng ~p:0.02 ~shape:2.5 in
  let xs = LP.generate proc 400_000 in
  close ~tol:0.05 "mean 1/p" 50.0 (D.mean xs)

let test_pareto_heavy_tail () =
  let rng = Prng.create ~seed:22 in
  let proc = LP.iid_pareto rng ~p:0.02 ~shape:1.5 in
  let xs = LP.generate proc 200_000 in
  (* Infinite-variance regime: empirical cv far above the
     shifted-exponential's ceiling of 1. *)
  Alcotest.(check bool) "cv >> 1" true (D.coefficient_of_variation xs > 1.5)

let test_pareto_invalid () =
  match LP.iid_pareto (Prng.create ~seed:1) ~p:0.1 ~shape:1.0 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_gilbert_bimodal () =
  let rng = Prng.create ~seed:23 in
  let proc = LP.gilbert rng ~mean_short:2.0 ~mean_long:100.0 ~run_length:20.0 in
  let xs = LP.generate proc 200_000 in
  close ~tol:0.1 "mean" 51.0 (D.mean xs);
  Alcotest.(check bool) "positive autocorr from runs" true
    (D.autocorrelation xs ~lag:1 > 0.1)

let test_gilbert_invalid () =
  match
    LP.gilbert (Prng.create ~seed:1) ~mean_short:5.0 ~mean_long:2.0
      ~run_length:10.0
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_theorem1_holds_under_pareto () =
  (* Heavy tails stress the estimator but the iid structure keeps (C1),
     so the control stays conservative. *)
  let rng = Prng.create ~seed:24 in
  let process = LP.iid_pareto rng ~p:0.05 ~shape:2.2 in
  let formula = Ebrc.Formula.create ~rtt:1.0 Ebrc.Formula.Pftk_simplified in
  let estimator = Ebrc.Loss_interval.of_tfrc ~l:8 in
  let r =
    Ebrc.Basic_control.simulate ~formula ~estimator ~process ~cycles:100_000 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "normalized %.3f <= 1" r.Ebrc.Basic_control.normalized)
    true
    (r.Ebrc.Basic_control.normalized <= 1.02)

(* ------------------------ sampler laws --------------------------- *)

(* One-sample Kolmogorov-Smirnov distance sup_x |F_n(x) - F(x)|. *)
let ks_statistic xs ~cdf =
  let xs = Array.copy xs in
  Array.sort compare xs;
  let n = float_of_int (Array.length xs) in
  let d = ref 0.0 in
  Array.iteri
    (fun i x ->
      let f = cdf x in
      d := Float.max !d (Float.max ((float_of_int (i + 1) /. n) -. f) (f -. (float_of_int i /. n))))
    xs;
  !d

let test_shifted_exp_sampler_ks () =
  (* End-to-end check that the designed loss-interval sampler follows
     its analytic CDF. *)
  let rng = Prng.create ~seed:54 in
  let mean = 50.0 and cv = 0.7 in
  let x0, a = Ebrc.Dist.shifted_exponential_params ~mean ~cv in
  let xs =
    Array.init 5_000 (fun _ -> Ebrc.Dist.shifted_exponential rng ~x0 ~a)
  in
  let cdf x = if x < x0 then 0.0 else 1.0 -. exp (-.a *. (x -. x0)) in
  let d = ks_statistic xs ~cdf in
  (* 1.63 / sqrt n is the asymptotic 1% critical value. *)
  Alcotest.(check bool) (Printf.sprintf "KS %.4f" d) true
    (d < 1.63 /. sqrt 5000.0)

(* ------------------------- TCP Tahoe ---------------------------- *)

let tahoe_loopback ~variant ~drop_p ~seed ~run_until =
  let module E = Ebrc.Engine in
  let module TS = Ebrc.Tcp_sender in
  let module TR = Ebrc.Tcp_receiver in
  let module LM = Ebrc.Loss_module in
  let engine = E.create () in
  let rng = Prng.create ~seed in
  let dropper = LM.bernoulli rng ~p:drop_p in
  let sender = TS.create ~variant ~max_window:500.0 ~engine ~flow:0 () in
  let receiver = TR.create ~engine ~flow:0 () in
  TS.set_transmit sender (fun pkt ->
      if LM.process dropper pkt then
        ignore
          (E.schedule_after engine ~delay:0.05 (fun () ->
               TR.on_data receiver pkt)));
  TR.set_ack_sink receiver (fun ~acked ~dup ~echo ->
      ignore
        (E.schedule_after engine ~delay:0.05 (fun () ->
             TS.on_ack sender ~acked ~dup ~echo)));
  ignore (E.schedule engine ~at:0.0 (fun () -> TS.start sender));
  ignore (E.run ~until:run_until engine);
  (sender, receiver)

let test_tahoe_progresses_under_loss () =
  let module TR = Ebrc.Tcp_receiver in
  let _, receiver =
    tahoe_loopback ~variant:Ebrc.Tcp_sender.Tahoe ~drop_p:0.01 ~seed:31
      ~run_until:60.0
  in
  Alcotest.(check bool) "advances" true (TR.expected receiver > 1000)

(* A loopback that drops exactly one packet (seq 200) and reports the
   congestion window shortly after recovery completes. *)
let single_loss_cwnd ~variant =
  let module E = Ebrc.Engine in
  let module TS = Ebrc.Tcp_sender in
  let module TR = Ebrc.Tcp_receiver in
  let engine = E.create () in
  let dropped = ref false in
  let sender = TS.create ~variant ~max_window:64.0 ~engine ~flow:0 () in
  let receiver = TR.create ~engine ~flow:0 () in
  TS.set_transmit sender (fun pkt ->
      let drop = pkt.Ebrc.Packet.seq = 200 && not !dropped in
      if drop then dropped := true
      else
        ignore
          (E.schedule_after engine ~delay:0.05 (fun () ->
               TR.on_data receiver pkt)));
  TR.set_ack_sink receiver (fun ~acked ~dup ~echo ->
      ignore
        (E.schedule_after engine ~delay:0.05 (fun () ->
             TS.on_ack sender ~acked ~dup ~echo)));
  ignore (E.schedule engine ~at:0.0 (fun () -> TS.start sender));
  (* Run just past the recovery of the single loss. *)
  ignore (E.run ~until:3.0 engine);
  TS.cwnd sender

let test_tahoe_window_collapse_vs_reno_halving () =
  (* The defining difference: after one fast retransmit, Tahoe restarts
     from cwnd = 1 (then slow-starts to ssthresh), Reno halves. Shortly
     after the loss, Reno's window must be at least as large, and both
     must sit near ssthresh = half the pre-loss flight. *)
  let reno = single_loss_cwnd ~variant:Ebrc.Tcp_sender.Reno in
  let tahoe = single_loss_cwnd ~variant:Ebrc.Tcp_sender.Tahoe in
  Alcotest.(check bool)
    (Printf.sprintf "reno %.1f >= tahoe %.1f" reno tahoe)
    true
    (reno >= tahoe -. 1.0);
  Alcotest.(check bool) "both recovered to a sane window" true
    (reno > 8.0 && tahoe > 1.0)

let test_tahoe_uses_fast_retransmit_counter () =
  let module TS = Ebrc.Tcp_sender in
  let sender, _ =
    tahoe_loopback ~variant:TS.Tahoe ~drop_p:0.02 ~seed:33 ~run_until:60.0
  in
  Alcotest.(check bool) "fast retransmits counted" true
    (TS.fast_retransmits sender > 0)

(* ----------------------- RED gentle mode ------------------------ *)

let test_red_gentle_softens_wall () =
  let module QD = Ebrc.Queue_discipline in
  let mk gentle =
    QD.create ~capacity:1000
      (QD.Red
         {
           min_th = 5.0;
           max_th = 15.0;
           max_p = 0.1;
           wq = 1.0;
           byte_mode = false;
           mean_pktsize = 1000;
           gentle;
         })
  in
  (* Drive the average to ~18 (between max_th and 2*max_th). *)
  let drive q =
    for _ = 1 to 18 do
      ignore (QD.offer q ~now:0.0 ~u:0.999999)
    done
  in
  let hard = mk false and soft = mk true in
  drive hard;
  drive soft;
  (* Non-gentle: forced drop. Gentle: probabilistic (u near 1 passes). *)
  Alcotest.(check bool) "hard wall drops" true
    (QD.offer hard ~now:0.0 ~u:0.999999 = QD.Drop);
  Alcotest.(check bool) "gentle can pass" true
    (QD.offer soft ~now:0.0 ~u:0.999999 = QD.Enqueue);
  (* But gentle still drops with high probability there (pb ~ 0.28). *)
  let rng = Prng.create ~seed:41 in
  let drops = ref 0 in
  for _ = 1 to 1000 do
    match QD.offer soft ~now:0.0 ~u:(Prng.float_unit rng) with
    | QD.Drop -> incr drops
    | QD.Enqueue -> QD.departure soft ~now:0.0
  done;
  Alcotest.(check bool)
    (Printf.sprintf "gentle drops some (%d/1000)" !drops)
    true
    (!drops > 50 && !drops < 900)

(* --------------------------- report ----------------------------- *)

let test_report_generates_markdown () =
  let doc =
    Ebrc.Report.generate
      ~options:{ Ebrc.Report.default_options with ids = [ "2"; "c4" ] }
      ()
  in
  let contains sub =
    let n = String.length doc and m = String.length sub in
    let rec go i = i + m <= n && (String.sub doc i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has heading" true (contains "# EBRC reproduction");
  Alcotest.(check bool) "has figure 2" true (contains "## Figure 2");
  Alcotest.(check bool) "has markdown table" true (contains "|---|");
  Alcotest.(check bool) "has the 1.0026 note" true (contains "1.0026");
  Alcotest.(check bool) "has c4" true (contains "16/9")

let test_report_markdown_of_table () =
  let module T = Ebrc.Table in
  let t = T.add_row (T.create ~title:"x" ~header:[ "a"; "b" ]) [ "1"; "2" ] in
  Alcotest.(check string) "markdown"
    "### x\n\n| a | b |\n|---|---|\n| 1 | 2 |\n\n" (T.to_markdown t);
  (* Cells and notes are written verbatim: quotes and commas survive. *)
  let t = T.add_note (T.add_row t [ "say \"hi\", ok"; "3" ]) "n, \"q\"" in
  Alcotest.(check string) "quoted cell"
    "### x\n\n| a | b |\n|---|---|\n| 1 | 2 |\n| say \"hi\", ok | 3 |\n\n\
     > n, \"q\"\n\n"
    (T.to_markdown t)

(* ------------------------ chain scenario ------------------------ *)

(* The two-router chain is a scenario with a second hop. *)
let fast_hop (cfg : Ebrc.Scenario.config) =
  {
    cfg with
    second_hop =
      Option.map
        (fun h ->
          { h with Ebrc.Scenario.hop_bps = 100e6; cross_fraction = 0.0 })
        cfg.second_hop;
  }

let test_chain_single_bottleneck_degenerates () =
  let module S = Ebrc.Scenario in
  let r =
    S.run (fast_hop { S.chain_config with duration = 50.0; warmup = 15.0 })
  in
  let hop = Option.get r.S.hop_stats in
  Alcotest.(check bool) "link1 saturated" true (r.S.link_utilization > 0.8);
  Alcotest.(check bool) "link2 idle-ish" true (hop.S.hop_utilization < 0.2);
  Alcotest.(check int) "no drops at link2" 0 hop.S.hop_drops;
  Alcotest.(check bool) "tfrc works" true
    (S.mean_throughput r.S.tfrc > 10.0);
  Alcotest.(check bool) "tcp works" true (S.mean_throughput r.S.tcp > 10.0)

let test_chain_cross_traffic_moves_losses () =
  let module S = Ebrc.Scenario in
  let r = S.run { S.chain_config with duration = 50.0; warmup = 15.0 } in
  let hop = Option.get r.S.hop_stats in
  Alcotest.(check bool)
    (Printf.sprintf "most drops at link2 (%d vs %d)" hop.S.hop_drops
       r.S.queue_drops)
    true
    (hop.S.hop_drops > r.S.queue_drops);
  Alcotest.(check bool) "both classes see losses" true
    (S.pooled_loss_rate r.S.tfrc > 0.0 && S.pooled_loss_rate r.S.tcp > 0.0)

let test_chain_validation () =
  let module S = Ebrc.Scenario in
  (match S.run { S.chain_config with duration = 1.0; warmup = 2.0 } with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  List.iter
    (fun x ->
      let cfg =
        {
          S.chain_config with
          second_hop =
            Option.map
              (fun h -> { h with S.cross_fraction = x })
              S.chain_config.second_hop;
        }
      in
      match S.run cfg with
      | _ -> Alcotest.failf "cross_fraction %g: expected Invalid_argument" x
      | exception Invalid_argument _ -> ())
    [ 1.5; 1.0; -0.1; nan ]

(* A9's two rows differ only in the hop, so the hop must be in the
   stream key; a config without a hop keeps its old key. *)
let test_chain_stream_keys () =
  let module S = Ebrc.Scenario in
  let k = S.stream_key in
  Alcotest.(check bool) "hop rows differ" true
    (k S.chain_config <> k (fast_hop S.chain_config));
  Alcotest.(check string) "no hop, no tag" "s42:n4+4+p:d300:w50:reda0"
    (k S.default_config)

(* Bit-exact pin of the two-hop topology on the two quick A9 rows and
   a link-flap run: drops and utilisation on each link and each class's
   pooled loss-event rate, floats as "%h". *)
let test_chain_pinned () =
  let module S = Ebrc.Scenario in
  let base = { S.chain_config with duration = 60.0; warmup = 15.0 } in
  let flaps =
    Some { Ebrc.Fault.first_down = 10.0; down_mean = 0.5; up_mean = 6.0;
           flap_jitter = 0.3; park = false }
  in
  List.iter
    (fun (name, cfg, expected) ->
      let r = S.run cfg in
      let hop = Option.get r.S.hop_stats in
      Alcotest.(check string) name expected
        (Printf.sprintf "%d %d %h %h %h %h" r.S.queue_drops hop.S.hop_drops
           r.S.link_utilization hop.S.hop_utilization
           (S.pooled_loss_rate r.S.tfrc) (S.pooled_loss_rate r.S.tcp)))
    [
      ( "single bottleneck (fast L2)",
        fast_hop base,
        "100 0 0x1.f5a4448ed502ap-1 0x1.915036d8aa688p-4 \
         0x1.8212d9eba4018p-11 0x1.d466269e35912p-10" );
      ( "dual bottleneck + cross",
        base,
        "0 315 0x1.5abfc8a892ba5p-1 0x1.f1800a7c5ac47p-1 \
         0x1.4aa4c94c079fap-9 0x1.370ddd20bee8dp-9" );
      ( "link flaps",
        { base with faults = Some { Ebrc.Fault.none with Ebrc.Fault.flaps } },
        "0 162 0x1.2764f89040844p-1 0x1.bfbf567aef42dp-1 \
         0x1.882df562c192bp-9 0x1.b4f56c6aadebp-9" );
    ]

let () =
  Alcotest.run "extensions"
    [
      ( "student_t",
        [
          Alcotest.test_case "table quantiles" `Quick test_t_quantiles_against_tables;
          Alcotest.test_case "cdf symmetry" `Quick test_t_cdf_symmetry;
          Alcotest.test_case "cdf median" `Quick test_t_cdf_median;
          Alcotest.test_case "quantile roundtrip" `Quick test_t_quantile_roundtrip;
          Alcotest.test_case "log gamma" `Quick test_log_gamma_factorials;
          Alcotest.test_case "incomplete beta" `Quick test_incomplete_beta_bounds;
          Alcotest.test_case "CI basic" `Quick test_mean_ci_contains_mean;
          Alcotest.test_case "CI coverage" `Quick test_mean_ci_coverage;
        ] );
      ( "loss_processes",
        [
          Alcotest.test_case "pareto mean" `Quick test_pareto_mean;
          Alcotest.test_case "pareto heavy tail" `Quick test_pareto_heavy_tail;
          Alcotest.test_case "pareto invalid" `Quick test_pareto_invalid;
          Alcotest.test_case "gilbert bimodal" `Quick test_gilbert_bimodal;
          Alcotest.test_case "gilbert invalid" `Quick test_gilbert_invalid;
          Alcotest.test_case "Theorem 1 under pareto" `Quick test_theorem1_holds_under_pareto;
        ] );
      ( "ecdf",
        [
          Alcotest.test_case "shifted-exp sampler KS" `Quick test_shifted_exp_sampler_ks;
        ] );
      ( "tahoe",
        [
          Alcotest.test_case "progresses" `Quick test_tahoe_progresses_under_loss;
          Alcotest.test_case "window collapse vs halving" `Quick test_tahoe_window_collapse_vs_reno_halving;
          Alcotest.test_case "fast retransmit counter" `Quick test_tahoe_uses_fast_retransmit_counter;
        ] );
      ( "red_gentle",
        [ Alcotest.test_case "softens wall" `Quick test_red_gentle_softens_wall ] );
      ( "report",
        [
          Alcotest.test_case "generates markdown" `Quick test_report_generates_markdown;
          Alcotest.test_case "table to markdown" `Quick test_report_markdown_of_table;
        ] );
      ( "chain",
        [
          Alcotest.test_case "degenerates to dumbbell" `Quick test_chain_single_bottleneck_degenerates;
          Alcotest.test_case "cross traffic moves losses" `Quick test_chain_cross_traffic_moves_losses;
          Alcotest.test_case "validation" `Quick test_chain_validation;
          Alcotest.test_case "pinned bit-exact" `Quick test_chain_pinned;
          Alcotest.test_case "stream keys" `Quick test_chain_stream_keys;
        ] );
    ]
