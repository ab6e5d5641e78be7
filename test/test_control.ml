(* Tests for the basic and comprehensive control engines: the Palm
   throughput formulas (Props 1-3), the theorem predicates, and
   Monte-Carlo validation of the paper's core claims. *)

module F = Ebrc.Formula
module LI = Ebrc.Loss_interval
module LP = Ebrc.Loss_process
module BC = Ebrc.Basic_control
module CC = Ebrc.Comprehensive_control
module Th = Ebrc.Theorems
module Prng = Ebrc.Prng

let feq ?(eps = 1e-9) a b =
  Alcotest.(check bool)
    (Printf.sprintf "%.12g ~ %.12g" a b)
    true
    (abs_float (a -. b) <= eps *. (1.0 +. abs_float a +. abs_float b))

let sqrt_f = F.create ~rtt:1.0 F.Sqrt
let pftk_simpl = F.create ~rtt:1.0 F.Pftk_simplified

let run_basic ?(seed = 11) ?(cycles = 100_000) ~kind ~l ~p ~cv () =
  let rng = Prng.create ~seed in
  let process = LP.iid_shifted_exponential rng ~p ~cv in
  let formula = F.create ~rtt:1.0 kind in
  let estimator = LI.of_tfrc ~l in
  BC.simulate ~formula ~estimator ~process ~cycles ()

(* ----------------------- Proposition 1 ------------------------- *)

let test_palm_throughput_constant_trajectory () =
  let v = 25.0 in
  let thetas = Array.make 50 v in
  let weights = Ebrc.Weights.tfrc 8 in
  feq (BC.palm_throughput ~formula:sqrt_f ~weights thetas)
    (F.eval sqrt_f (1.0 /. v))

let test_palm_throughput_two_point_exact () =
  (* Hand-computed Prop-1 value on a deterministic alternating
     trajectory with L = 1 (thetahat_n = theta_{n-1}). Cycle pairs
     (thetahat, theta): (10,20),(20,10),(10,20),(20,10). *)
  let thetas = [| 10.0; 20.0; 10.0; 20.0; 10.0 |] in
  let weights = [| 1.0 |] in
  let d1 = 20.0 /. F.eval sqrt_f 0.1 and d2 = 10.0 /. F.eval sqrt_f 0.05 in
  feq
    (BC.palm_throughput ~formula:sqrt_f ~weights thetas)
    (60.0 /. ((2.0 *. d1) +. (2.0 *. d2)))

let test_palm_throughput_too_short () =
  match
    BC.palm_throughput ~formula:sqrt_f ~weights:(Ebrc.Weights.tfrc 8)
      (Array.make 8 10.0)
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_simulate_agrees_with_palm_formula () =
  (* The streaming cycle loop and the trajectory-based Prop-1 evaluation
     must agree on the same interval sequence. *)
  let rng = Prng.create ~seed:3 in
  let thetas =
    Array.init 5008 (fun _ -> Ebrc.Dist.exponential_mean rng ~mean:20.0)
  in
  let weights = Ebrc.Weights.tfrc 8 in
  let direct = BC.palm_throughput ~formula:pftk_simpl ~weights thetas in
  let estimator = LI.create ~weights in
  for i = 0 to 7 do
    LI.record estimator thetas.(i)
  done;
  let num = ref 0.0 and den = ref 0.0 in
  for i = 8 to 5007 do
    let thetahat = LI.estimate estimator in
    let theta = thetas.(i) in
    num := !num +. theta;
    den := !den +. (theta /. F.eval pftk_simpl (1.0 /. thetahat));
    LI.record estimator theta
  done;
  feq ~eps:1e-9 (!num /. !den) direct

(* -------------------- Theorem 1 validation --------------------- *)

let test_sqrt_conservative_iid () =
  List.iter
    (fun l ->
      let r = run_basic ~kind:F.Sqrt ~l ~p:0.1 ~cv:0.9 () in
      Alcotest.(check bool)
        (Printf.sprintf "SQRT L=%d normalized %.3f <= 1" l r.BC.normalized)
        true
        (r.BC.normalized <= 1.02))
    [ 1; 2; 4; 8; 16 ]

let test_pftk_conservative_iid () =
  List.iter
    (fun p ->
      let r = run_basic ~kind:F.Pftk_simplified ~l:8 ~p ~cv:0.9 () in
      Alcotest.(check bool)
        (Printf.sprintf "PFTK p=%.2f normalized %.3f <= 1" p r.BC.normalized)
        true
        (r.BC.normalized <= 1.02))
    [ 0.01; 0.05; 0.1; 0.2 ]

let test_more_convex_more_conservative () =
  let s = run_basic ~kind:F.Sqrt ~l:4 ~p:0.2 ~cv:0.9 () in
  let k = run_basic ~kind:F.Pftk_simplified ~l:4 ~p:0.2 ~cv:0.9 () in
  Alcotest.(check bool)
    (Printf.sprintf "PFTK %.3f < SQRT %.3f" k.BC.normalized s.BC.normalized)
    true
    (k.BC.normalized < s.BC.normalized)

let test_larger_l_less_conservative () =
  let r2 = run_basic ~kind:F.Pftk_simplified ~l:2 ~p:0.1 ~cv:0.9 () in
  let r16 = run_basic ~kind:F.Pftk_simplified ~l:16 ~p:0.1 ~cv:0.9 () in
  Alcotest.(check bool)
    (Printf.sprintf "L=16 %.3f > L=2 %.3f" r16.BC.normalized r2.BC.normalized)
    true
    (r16.BC.normalized > r2.BC.normalized)

let test_heavier_loss_more_conservative_pftk () =
  let r_small = run_basic ~kind:F.Pftk_simplified ~l:8 ~p:0.02 ~cv:0.9 () in
  let r_big = run_basic ~kind:F.Pftk_simplified ~l:8 ~p:0.3 ~cv:0.9 () in
  Alcotest.(check bool) "heavier loss more conservative" true
    (r_big.BC.normalized < r_small.BC.normalized)

let test_sqrt_normalized_invariant_in_p () =
  let r1 = run_basic ~seed:5 ~kind:F.Sqrt ~l:4 ~p:0.02 ~cv:0.9 () in
  let r2 = run_basic ~seed:5 ~kind:F.Sqrt ~l:4 ~p:0.3 ~cv:0.9 () in
  Alcotest.(check bool)
    (Printf.sprintf "%.4f vs %.4f" r1.BC.normalized r2.BC.normalized)
    true
    (abs_float (r1.BC.normalized -. r2.BC.normalized) < 0.02)

let test_covariance_iid_near_zero () =
  let r = run_basic ~kind:F.Sqrt ~l:8 ~p:0.05 ~cv:0.9 ~cycles:200_000 () in
  let norm_cov =
    r.BC.cov_theta_thetahat *. r.BC.p_observed *. r.BC.p_observed
  in
  Alcotest.(check bool)
    (Printf.sprintf "normalized cov %.4f near 0" norm_cov)
    true
    (abs_float norm_cov < 0.01)

let test_observed_p_matches_target () =
  let r = run_basic ~kind:F.Sqrt ~l:8 ~p:0.1 ~cv:0.8 () in
  Alcotest.(check bool)
    (Printf.sprintf "p_observed %.4f ~ 0.1" r.BC.p_observed)
    true
    (abs_float (r.BC.p_observed -. 0.1) < 0.005)

let test_markov_phases_can_be_nonconservative () =
  (* Predictable (positively correlated) intervals break (C1); the
     control becomes less conservative than in the iid case. *)
  let rng = Prng.create ~seed:77 in
  let process =
    LP.markov_phases rng ~mean_good:60.0 ~mean_bad:4.0 ~phase_length:40.0
  in
  let estimator = LI.of_tfrc ~l:4 in
  let r = BC.simulate ~formula:sqrt_f ~estimator ~process ~cycles:200_000 () in
  Alcotest.(check bool) "cov > 0" true (r.BC.cov_theta_thetahat > 0.0);
  let iid = run_basic ~kind:F.Sqrt ~l:4 ~p:r.BC.p_observed ~cv:0.9 () in
  Alcotest.(check bool)
    (Printf.sprintf "phases %.3f > iid %.3f" r.BC.normalized iid.BC.normalized)
    true
    (r.BC.normalized > iid.BC.normalized)

(* ------------------ Theorem 2 / audio regime ------------------- *)

(* Basic control against a real-time loss process (exponential
   durations independent of the rate): cov[X0, S0] = 0, the audio
   regime. theta_n = X_n * S_n. *)
let run_realtime_losses ~kind ~l ~event_rate ~cycles ~seed =
  let rng = Prng.create ~seed in
  let formula = F.create ~rtt:1.0 kind in
  let estimator = LI.of_tfrc ~l in
  let mean_s = 1.0 /. event_rate in
  LI.prime estimator (F.eval formula event_rate *. mean_s);
  let total_packets = ref 0.0 and total_time = ref 0.0 in
  for _ = 1 to cycles do
    let thetahat = LI.estimate estimator in
    let x = F.eval formula (1.0 /. thetahat) in
    let s = Ebrc.Dist.exponential rng ~rate:event_rate in
    let theta = Float.max (x *. s) 1e-6 in
    total_packets := !total_packets +. theta;
    total_time := !total_time +. s;
    LI.record estimator theta
  done;
  let throughput = !total_packets /. !total_time in
  let p = float_of_int cycles /. !total_packets in
  throughput /. F.eval formula p

let test_realtime_sqrt_conservative () =
  let norm =
    run_realtime_losses ~kind:F.Sqrt ~l:4 ~event_rate:1.0 ~cycles:200_000
      ~seed:13
  in
  Alcotest.(check bool)
    (Printf.sprintf "SQRT realtime normalized %.3f <= 1" norm)
    true (norm <= 1.005)

let test_realtime_pftk_heavy_loss_nonconservative () =
  let norm =
    run_realtime_losses ~kind:F.Pftk_simplified ~l:4 ~event_rate:1.0
      ~cycles:200_000 ~seed:14
  in
  Alcotest.(check bool)
    (Printf.sprintf "PFTK heavy-loss realtime normalized %.3f > 1" norm)
    true (norm > 1.0)

(* ------------------- comprehensive control --------------------- *)

let run_comprehensive ?(seed = 21) ?(cycles = 50_000) ~kind ~l ~p ~cv () =
  let rng = Prng.create ~seed in
  let process = LP.iid_shifted_exponential rng ~p ~cv in
  let formula = F.create ~rtt:1.0 kind in
  let estimator = LI.of_tfrc ~l in
  CC.simulate ~formula ~estimator ~process ~cycles ()

(* The closed form against the quadrature oracle (Growth_quadrature):
   both compute the exact Sₙ, so they agree to rounding. *)
let closed_vs_quadrature ~formula ~estimator ~theta =
  let closed = CC.cycle_duration_closed ~formula ~estimator ~theta in
  let quad = Growth_quadrature.cycle_duration ~formula ~estimator ~theta in
  abs_float (closed -. quad) /. quad

let check_rel_err ~what err =
  Alcotest.(check bool)
    (Printf.sprintf "%s: rel err %.3g <= 1e-12" what err)
    true (err <= 1e-12)

let test_comprehensive_at_least_basic () =
  List.iter
    (fun kind ->
      let b = run_basic ~seed:31 ~kind ~l:8 ~p:0.05 ~cv:0.9 () in
      let c = run_comprehensive ~seed:31 ~kind ~l:8 ~p:0.05 ~cv:0.9 () in
      Alcotest.(check bool)
        (Printf.sprintf "%s: compr %.4f >= basic %.4f"
           (F.name (F.create kind))
           c.CC.normalized b.BC.normalized)
        true
        (c.CC.normalized >= b.BC.normalized -. 0.01))
    [ F.Sqrt; F.Pftk_simplified ]

(* Every cycle of a seeded 3,000-cycle trajectory: the closed form
   matches the quadrature, and [simulate]'s throughput is the
   quadrature's sum(theta) / sum(S). *)
let test_closed_form_matches_ode () =
  List.iter
    (fun kind ->
      let formula = F.create ~rtt:1.0 kind in
      let cycles = 3000 and l = 8 in
      let sim = run_comprehensive ~seed:41 ~cycles ~kind ~l ~p:0.05 ~cv:0.9 () in
      let rng = Prng.create ~seed:41 in
      let process = LP.iid_shifted_exponential rng ~p:0.05 ~cv:0.9 in
      let estimator = LI.of_tfrc ~l in
      for _ = 1 to l do
        LI.record estimator (LP.next process)
      done;
      let packets = ref 0.0 and time = ref 0.0 and worst = ref 0.0 in
      for _ = 1 to cycles do
        let theta = LP.next process in
        worst :=
          Float.max !worst (closed_vs_quadrature ~formula ~estimator ~theta);
        packets := !packets +. theta;
        time :=
          !time +. Growth_quadrature.cycle_duration ~formula ~estimator ~theta;
        LI.record estimator theta
      done;
      let what = F.name formula in
      check_rel_err ~what:(what ^ " worst cycle") !worst;
      check_rel_err ~what:(what ^ " throughput")
        (abs_float ((!packets /. !time) -. sim.CC.throughput)
        /. sim.CC.throughput))
    [ F.Sqrt; F.Pftk_simplified ]

let test_cycle_duration_no_growth_equals_basic () =
  let estimator = LI.of_tfrc ~l:8 in
  LI.prime estimator 50.0;
  let theta = 10.0 in
  let s = CC.cycle_duration_closed ~formula:sqrt_f ~estimator ~theta in
  feq s (theta /. F.eval sqrt_f (1.0 /. 50.0))

let test_cycle_duration_growth_shorter () =
  let estimator = LI.of_tfrc ~l:8 in
  LI.prime estimator 20.0;
  let theta = 200.0 in
  let s = CC.cycle_duration_closed ~formula:sqrt_f ~estimator ~theta in
  let x0 = F.eval sqrt_f (1.0 /. 20.0) in
  Alcotest.(check bool) "shorter than no-growth" true (s < theta /. x0);
  let probe = LI.copy estimator in
  LI.record probe theta;
  let x1 = F.eval sqrt_f (1.0 /. LI.estimate probe) in
  Alcotest.(check bool) "longer than at final rate" true (s > theta /. x1)

let test_cycle_duration_closed_vs_ode_single () =
  let estimator = LI.of_tfrc ~l:8 in
  LI.prime estimator 20.0;
  check_rel_err ~what:"PFTK-simplified"
    (closed_vs_quadrature ~formula:pftk_simpl ~estimator ~theta:120.0)

let test_cycle_duration_quadrature_vs_closed_sqrt () =
  let estimator = LI.of_tfrc ~l:8 in
  LI.prime estimator 20.0;
  check_rel_err ~what:"SQRT"
    (closed_vs_quadrature ~formula:sqrt_f ~estimator ~theta:120.0)

let test_closed_form_rejects_pftk_standard () =
  let rng = Prng.create ~seed:1 in
  let process = LP.iid_exponential rng ~p:0.05 in
  let estimator = LI.of_tfrc ~l:8 in
  Alcotest.check_raises "PFTK-standard"
    (Invalid_argument
       "Comprehensive_control.simulate: the closed form needs SQRT or \
        PFTK-simplified")
    (fun () ->
      ignore
        (CC.simulate
           ~formula:(F.create ~rtt:1.0 F.Pftk_standard)
           ~estimator ~process ~cycles:10 ()))

let test_v_n_zero_when_equal () =
  feq (CC.v_n ~formula:sqrt_f ~w1:0.2 ~thetahat0:30.0 ~thetahat1:30.0) 0.0

(* ------------------------- theorems ---------------------------- *)

let obs ?(cov_tt = 0.0) ?(cov_xs = 0.0) ?(lo = 5.0) ?(hi = 100.0) ?(var = true)
    () =
  {
    Th.cov_theta_thetahat = cov_tt;
    cov_rate_duration = cov_xs;
    thetahat_lo = lo;
    thetahat_hi = hi;
    estimator_has_variance = var;
  }

let pred = Alcotest.testable Th.pp_prediction ( = )

let test_theorem1_applies () =
  Alcotest.check pred "SQRT + C1 => conservative" Th.Conservative
    (Th.theorem1 sqrt_f (obs ~cov_tt:(-0.1) ()));
  Alcotest.check pred "positive cov: no prediction" Th.No_prediction
    (Th.theorem1 sqrt_f (obs ~cov_tt:1.0 ()))

let test_theorem2_directions () =
  Alcotest.check pred "SQRT concave + C2" Th.Conservative
    (Th.theorem2 sqrt_f (obs ~cov_xs:(-0.5) ()));
  Alcotest.check pred "PFTK heavy + C2c + V" Th.Non_conservative
    (Th.theorem2 pftk_simpl (obs ~cov_xs:0.0 ~lo:1.6 ~hi:4.0 ()));
  Alcotest.check pred "degenerate estimator" Th.No_prediction
    (Th.theorem2 pftk_simpl (obs ~cov_xs:0.0 ~lo:1.6 ~hi:4.0 ~var:false ()))

let test_predict_prefers_theorem1 () =
  Alcotest.check pred "predict via theorem 1" Th.Conservative
    (Th.predict sqrt_f (obs ~cov_tt:(-0.1) ~cov_xs:1.0 ()))

let test_max_overshoot_bound () =
  let r = Th.max_overshoot pftk_simpl (obs ()) in
  Alcotest.(check bool) "overshoot ratio ~ 1 for convex g" true
    (r >= 1.0 && r < 1.0001)

(* ---------------------- (C3) diagnostic ------------------------- *)

let test_c3_detects_decreasing_conditional () =
  (* S = 10/X plus small noise: E[S|X] strictly decreasing -> C3 holds. *)
  let rng = Prng.create ~seed:61 in
  let pairs =
    Array.init 800 (fun _ ->
        let x = Ebrc.Dist.uniform rng ~lo:1.0 ~hi:10.0 in
        let s = (10.0 /. x) +. Ebrc.Dist.uniform rng ~lo:0.0 ~hi:0.05 in
        (x, s))
  in
  let v = Th.check_c3 pairs in
  Alcotest.(check bool) "C3 holds" true v.Th.holds;
  Alcotest.(check int) "no violations" 0 v.Th.violations

let test_c3_detects_increasing_conditional () =
  (* S proportional to X: E[S|X] increasing -> C3 fails. *)
  let rng = Prng.create ~seed:62 in
  let pairs =
    Array.init 800 (fun _ ->
        let x = Ebrc.Dist.uniform rng ~lo:1.0 ~hi:10.0 in
        (x, x /. 5.0))
  in
  let v = Th.check_c3 pairs in
  Alcotest.(check bool) "C3 fails" false v.Th.holds;
  Alcotest.(check bool) "violations found" true (v.Th.violations > 0)

let test_c3_flat_conditional_holds () =
  (* Independent S: flat conditional passes within tolerance — the
     audio regime (cov = 0). *)
  let rng = Prng.create ~seed:63 in
  let pairs =
    Array.init 4000 (fun _ ->
        ( Ebrc.Dist.uniform rng ~lo:1.0 ~hi:10.0,
          Ebrc.Dist.exponential rng ~rate:1.0 ))
  in
  let v = Th.check_c3 ~bins:4 ~tolerance:0.2 pairs in
  Alcotest.(check bool) "flat passes with tolerance" true v.Th.holds

let test_c3_on_basic_control_trajectory () =
  (* For the basic control on iid losses, S_n = theta_n / X_n with
     theta independent of X, so E[S|X] = E[theta]/X is decreasing:
     (C3) holds on real trajectory data, implying (C2). *)
  let rng = Prng.create ~seed:64 in
  let process = LP.iid_shifted_exponential rng ~p:0.1 ~cv:0.9 in
  let estimator = LI.of_tfrc ~l:4 in
  let r =
    BC.simulate ~collect_pairs:true ~formula:pftk_simpl ~estimator ~process
      ~cycles:50_000 ()
  in
  let v = Th.check_c3 ~bins:6 ~tolerance:0.1 r.BC.rate_duration_pairs in
  Alcotest.(check bool) "C3 holds on trajectory" true v.Th.holds;
  Alcotest.(check bool) "and C2 (cov <= 0) as Harris implies" true
    (r.BC.cov_rate_duration <= 0.0)

let test_c3_validation () =
  (match Th.check_c3 ~bins:1 [| (1.0, 1.0); (2.0, 2.0) |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  match Th.check_c3 (Array.make 3 (1.0, 1.0)) with
  | _ -> Alcotest.fail "expected Invalid_argument (too few)"
  | exception Invalid_argument _ -> ()

(* ----------------------- exact quadrature ---------------------- *)

let test_exact_matches_monte_carlo () =
  (* The iid Prop-1 collapse: exact Erlang quadrature vs Monte Carlo
     with uniform weights, within MC noise. *)
  List.iter
    (fun l ->
      let exact =
        Ebrc.Exact.normalized_throughput ~formula:pftk_simpl ~l ~p:0.1 ~cv:0.9
      in
      let rng = Prng.create ~seed:77 in
      let process = LP.iid_shifted_exponential rng ~p:0.1 ~cv:0.9 in
      let estimator = LI.create ~weights:(Ebrc.Weights.uniform l) in
      let mc =
        (BC.simulate ~formula:pftk_simpl ~estimator ~process ~cycles:200_000 ())
          .BC.normalized
      in
      Alcotest.(check bool)
        (Printf.sprintf "L=%d exact %.4f ~ MC %.4f" l exact mc)
        true
        (abs_float (mc -. exact) < 0.02 *. exact +. 0.002))
    [ 1; 2; 4; 8 ]

let test_exact_erlang_density_normalises () =
  List.iter
    (fun k ->
      let integral =
        Ebrc.Quadrature.adaptive_simpson
          (fun y -> Ebrc.Exact.erlang_density ~k ~rate:2.0 y)
          ~lo:0.0 ~hi:50.0
      in
      feq ~eps:1e-8 integral 1.0)
    [ 1; 2; 5; 10 ]

let test_exact_jensen_gap_nonneg_for_convex_g () =
  (* g convex (F1) => E[g(thetahat)] >= g(E[thetahat]): the exact
     Jensen gap is non-negative for SQRT and PFTK-simplified at any
     (L, p, cv). *)
  List.iter
    (fun (l, p, cv) ->
      List.iter
        (fun formula ->
          let gap = Ebrc.Exact.jensen_gap ~formula ~l ~p ~cv in
          Alcotest.(check bool)
            (Printf.sprintf "%s L=%d p=%.2f cv=%.2f gap %.4g >= 0"
               (F.name formula) l p cv gap)
            true (gap >= -1e-9))
        [ sqrt_f; pftk_simpl ])
    [ (1, 0.05, 0.9); (4, 0.2, 0.5); (8, 0.01, 0.99); (16, 0.4, 0.3) ]

let test_exact_palm_rate_above_time_average () =
  (* Feller paradox: the event-average rate exceeds the time-average
     throughput (long intervals are sampled more by time). *)
  let l = 4 and p = 0.1 and cv = 0.9 in
  let palm = Ebrc.Exact.palm_mean_rate ~formula:sqrt_f ~l ~p ~cv in
  let norm = Ebrc.Exact.normalized_throughput ~formula:sqrt_f ~l ~p ~cv in
  let time_avg = norm *. F.eval sqrt_f p in
  Alcotest.(check bool)
    (Printf.sprintf "palm %.3f >= time avg %.3f" palm time_avg)
    true (palm >= time_avg)

let test_exact_monotone_in_l () =
  (* Larger (uniform) windows reduce estimator variability: normalized
     throughput increases with L (Claim 1). *)
  let prev = ref 0.0 in
  List.iter
    (fun l ->
      let v =
        Ebrc.Exact.normalized_throughput ~formula:pftk_simpl ~l ~p:0.1 ~cv:0.9
      in
      Alcotest.(check bool)
        (Printf.sprintf "L=%d: %.4f > %.4f" l v !prev)
        true (v > !prev);
      prev := v)
    [ 1; 2; 4; 8; 16; 32 ]

(* ------------------------- properties -------------------------- *)

let prop_basic_conservative_sqrt_iid =
  QCheck.Test.make ~name:"Theorem 1 holds in MC for SQRT, iid" ~count:12
    QCheck.(
      triple (int_range 1 16) (float_range 0.01 0.3) (float_range 0.3 0.99))
    (fun (l, p, cv) ->
      let r = run_basic ~seed:(l * 7) ~cycles:30_000 ~kind:F.Sqrt ~l ~p ~cv () in
      r.BC.normalized <= 1.05)

let prop_basic_conservative_pftk_iid =
  QCheck.Test.make ~name:"Theorem 1 holds in MC for PFTK-simplified, iid"
    ~count:12
    QCheck.(
      triple (int_range 1 16) (float_range 0.01 0.3) (float_range 0.3 0.99))
    (fun (l, p, cv) ->
      let r =
        run_basic ~seed:(l * 13) ~cycles:30_000 ~kind:F.Pftk_simplified ~l ~p
          ~cv ()
      in
      r.BC.normalized <= 1.05)

let prop_quadrature_matches_closed =
  QCheck.Test.make ~name:"quadrature = closed form to 1e-12" ~count:60
    QCheck.(
      quad bool (int_range 2 16) (float_range 5.0 80.0) (float_range 1.1 20.0))
    (fun (pftk, l, prime, growth) ->
      let formula = if pftk then pftk_simpl else sqrt_f in
      let estimator = LI.of_tfrc ~l in
      LI.prime estimator prime;
      closed_vs_quadrature ~formula ~estimator ~theta:(prime *. growth)
      <= 1e-12)

let prop_comprehensive_ge_basic =
  QCheck.Test.make ~name:"Prop 2: comprehensive >= basic" ~count:8
    QCheck.(pair (int_range 2 16) (float_range 0.02 0.2))
    (fun (l, p) ->
      let b = run_basic ~seed:l ~cycles:20_000 ~kind:F.Sqrt ~l ~p ~cv:0.9 () in
      let c =
        run_comprehensive ~seed:l ~cycles:20_000 ~kind:F.Sqrt ~l ~p ~cv:0.9 ()
      in
      c.CC.normalized >= b.BC.normalized -. 0.02)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_basic_conservative_sqrt_iid;
      prop_basic_conservative_pftk_iid;
      prop_quadrature_matches_closed;
      prop_comprehensive_ge_basic;
    ]

let () =
  Alcotest.run "control"
    [
      ( "proposition1",
        [
          Alcotest.test_case "constant trajectory" `Quick test_palm_throughput_constant_trajectory;
          Alcotest.test_case "two-point exact" `Quick test_palm_throughput_two_point_exact;
          Alcotest.test_case "too short raises" `Quick test_palm_throughput_too_short;
          Alcotest.test_case "simulate agrees with formula" `Quick test_simulate_agrees_with_palm_formula;
        ] );
      ( "theorem1",
        [
          Alcotest.test_case "SQRT conservative (iid)" `Quick test_sqrt_conservative_iid;
          Alcotest.test_case "PFTK conservative (iid)" `Quick test_pftk_conservative_iid;
          Alcotest.test_case "more convex, more conservative" `Quick test_more_convex_more_conservative;
          Alcotest.test_case "larger L, less conservative" `Quick test_larger_l_less_conservative;
          Alcotest.test_case "heavier loss, more conservative" `Quick test_heavier_loss_more_conservative_pftk;
          Alcotest.test_case "SQRT invariant in p" `Quick test_sqrt_normalized_invariant_in_p;
          Alcotest.test_case "iid cov near zero" `Quick test_covariance_iid_near_zero;
          Alcotest.test_case "observed p" `Quick test_observed_p_matches_target;
          Alcotest.test_case "phases break C1" `Quick test_markov_phases_can_be_nonconservative;
        ] );
      ( "theorem2",
        [
          Alcotest.test_case "realtime SQRT conservative" `Quick test_realtime_sqrt_conservative;
          Alcotest.test_case "realtime PFTK heavy non-conservative" `Quick test_realtime_pftk_heavy_loss_nonconservative;
        ] );
      ( "comprehensive",
        [
          Alcotest.test_case "Prop 2 bound" `Quick test_comprehensive_at_least_basic;
          Alcotest.test_case "closed form = ODE (MC)" `Quick test_closed_form_matches_ode;
          Alcotest.test_case "no growth = basic cycle" `Quick test_cycle_duration_no_growth_equals_basic;
          Alcotest.test_case "growth shortens cycle" `Quick test_cycle_duration_growth_shorter;
          Alcotest.test_case "closed vs ODE single cycle" `Quick test_cycle_duration_closed_vs_ode_single;
          Alcotest.test_case "quadrature vs closed (SQRT, 1e-12)" `Quick test_cycle_duration_quadrature_vs_closed_sqrt;
          Alcotest.test_case "closed form rejects PFTK-std" `Quick test_closed_form_rejects_pftk_standard;
          Alcotest.test_case "V_n zero when estimates equal" `Quick test_v_n_zero_when_equal;
        ] );
      ( "exact",
        [
          Alcotest.test_case "matches Monte Carlo" `Quick test_exact_matches_monte_carlo;
          Alcotest.test_case "Erlang density normalised" `Quick test_exact_erlang_density_normalises;
          Alcotest.test_case "Jensen gap non-negative" `Quick test_exact_jensen_gap_nonneg_for_convex_g;
          Alcotest.test_case "Feller paradox ordering" `Quick test_exact_palm_rate_above_time_average;
          Alcotest.test_case "monotone in L" `Quick test_exact_monotone_in_l;
        ] );
      ( "theorems",
        [
          Alcotest.test_case "theorem 1 predicate" `Quick test_theorem1_applies;
          Alcotest.test_case "theorem 2 directions" `Quick test_theorem2_directions;
          Alcotest.test_case "predict order" `Quick test_predict_prefers_theorem1;
          Alcotest.test_case "max overshoot" `Quick test_max_overshoot_bound;
          Alcotest.test_case "C3 decreasing" `Quick test_c3_detects_decreasing_conditional;
          Alcotest.test_case "C3 increasing" `Quick test_c3_detects_increasing_conditional;
          Alcotest.test_case "C3 flat" `Quick test_c3_flat_conditional_holds;
          Alcotest.test_case "C3 on trajectory" `Quick test_c3_on_basic_control_trajectory;
          Alcotest.test_case "C3 validation" `Quick test_c3_validation;
        ] );
      ("properties", qsuite);
    ]
