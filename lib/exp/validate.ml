(* Automated validation of the paper's qualitative claims: each check
   runs an experiment and asserts the *shape* the paper predicts
   (orderings, crossovers, approximate factors), so a regression in any
   substrate that would silently change a scientific conclusion fails
   loudly. Exposed through `ebrc validate` and usable as a scientific
   CI gate. *)

module Formula = Ebrc_formulas.Formula
module Conditions = Ebrc_formulas.Conditions
module Convexity = Ebrc_numerics.Convexity
module Loss_interval = Ebrc_estimator.Loss_interval
module Loss_process = Ebrc_lossproc.Loss_process
module Basic_control = Ebrc_control.Basic_control
module Exact = Ebrc_control.Exact
module Few_flows = Ebrc_analysis.Few_flows
module Many_sources = Ebrc_analysis.Many_sources
module Prng = Ebrc_rng.Prng
module Pool = Ebrc_parallel.Pool

type check = {
  id : string;
  claim : string;             (* what the paper asserts *)
  run : quick:bool -> (bool * string);  (* (pass, evidence) *)
}

let run_basic ~seed ~kind ~l ~p ~cv ~cycles =
  let rng = Prng.create ~seed in
  let process = Loss_process.iid_shifted_exponential rng ~p ~cv in
  let formula = Formula.create ~rtt:1.0 kind in
  let estimator = Loss_interval.of_tfrc ~l in
  Basic_control.simulate ~formula ~estimator ~process ~cycles ()

let checks : check list =
  [
    {
      id = "prop4-ratio";
      claim = "PFTK-standard deviates from convexity by r = 1.0026";
      run =
        (fun ~quick ->
          let f = Formula.create ~rtt:1.0 ~b:1.0 Formula.Pftk_standard in
          let samples = if quick then 8192 else 65536 in
          let r =
            Convexity.deviation_ratio ~samples (Formula.g f) ~lo:3.25 ~hi:3.5
          in
          ( abs_float (r -. 1.0026) < 5e-4,
            Printf.sprintf "measured r = %.5f" r ));
    };
    {
      id = "f1-conditions";
      claim = "(F1) holds for SQRT and PFTK-simplified";
      run =
        (fun ~quick:_ ->
          let ok =
            Conditions.f1_holds (Formula.create Formula.Sqrt)
            && Conditions.f1_holds (Formula.create Formula.Pftk_simplified)
          in
          (ok, "convexity classifier on x in [1.5, 1000]"));
    };
    {
      id = "thm1-conservative";
      claim = "Theorem 1: iid losses + (F1) give x/f(p) <= 1";
      run =
        (fun ~quick ->
          let cycles = if quick then 50_000 else 300_000 in
          let worst = ref 0.0 in
          List.iter
            (fun (kind, l, p) ->
              let r = run_basic ~seed:11 ~kind ~l ~p ~cv:0.9 ~cycles in
              if r.Basic_control.normalized > !worst then
                worst := r.Basic_control.normalized)
            [
              (Formula.Sqrt, 4, 0.1); (Formula.Sqrt, 16, 0.3);
              (Formula.Pftk_simplified, 4, 0.1);
              (Formula.Pftk_simplified, 16, 0.3);
            ];
          ( !worst <= 1.02,
            Printf.sprintf "worst normalized = %.3f" !worst ));
    };
    {
      id = "claim1-l-ordering";
      claim = "Claim 1: larger L is less conservative";
      run =
        (fun ~quick ->
          let cycles = if quick then 50_000 else 300_000 in
          let v l =
            (run_basic ~seed:13 ~kind:Formula.Pftk_simplified ~l ~p:0.1
               ~cv:0.9 ~cycles)
              .Basic_control.normalized
          in
          let v2 = v 2 and v8 = v 8 and v16 = v 16 in
          ( v2 < v8 && v8 < v16,
            Printf.sprintf "L=2: %.3f < L=8: %.3f < L=16: %.3f" v2 v8 v16 ));
    };
    {
      id = "claim1-p-ordering";
      claim = "Claim 1: heavier loss is more conservative (PFTK)";
      run =
        (fun ~quick ->
          let cycles = if quick then 50_000 else 300_000 in
          let v p =
            (run_basic ~seed:17 ~kind:Formula.Pftk_simplified ~l:8 ~p ~cv:0.9
               ~cycles)
              .Basic_control.normalized
          in
          let a = v 0.02 and b = v 0.3 in
          (b < a, Printf.sprintf "p=0.02: %.3f > p=0.3: %.3f" a b));
    };
    {
      id = "sqrt-invariance";
      claim = "SQRT normalized throughput is invariant in p";
      run =
        (fun ~quick ->
          let l = 4 in
          let e p = Exact.normalized_throughput
              ~formula:(Formula.create Formula.Sqrt) ~l ~p ~cv:0.9 in
          ignore quick;
          let a = e 0.01 and b = e 0.4 in
          ( abs_float (a -. b) < 1e-6,
            Printf.sprintf "exact: %.6f vs %.6f" a b ));
    };
    {
      id = "claim2-crossover";
      claim =
        "Claim 2: audio source conservative under SQRT, non-conservative \
         under PFTK at heavy loss";
      run =
        (fun ~quick ->
          let duration = if quick then 800.0 else 3000.0 in
          let run kind drop_p =
            (Audio_scenario.run
               {
                 Audio_scenario.default_config with
                 drop_p;
                 formula_kind = kind;
                 duration;
                 warmup = duration /. 10.0;
               })
              .Audio_scenario.normalized_throughput
          in
          let sqrt_heavy = run Formula.Sqrt 0.2 in
          let pftk_heavy = run Formula.Pftk_simplified 0.2 in
          ( sqrt_heavy <= 1.02 && pftk_heavy > 1.0,
            Printf.sprintf "SQRT: %.3f <= 1 < PFTK: %.3f" sqrt_heavy
              pftk_heavy ));
    };
    {
      id = "claim3-ordering";
      claim = "Claim 3: p' <= p <= p'' in the many-sources limit";
      run =
        (fun ~quick:_ ->
          let cp =
            [|
              { Many_sources.p_i = 0.001; pi_i = 0.5 };
              { Many_sources.p_i = 0.01; pi_i = 0.3 };
              { Many_sources.p_i = 0.05; pi_i = 0.2 };
            |]
          in
          let formula = Formula.create ~rtt:0.05 Formula.Pftk_standard in
          let fr p = Formula.eval formula p in
          let p'' =
            Many_sources.limit_loss_event_rate cp
              ~rates:(Many_sources.poisson_profile cp)
          in
          let p' =
            Many_sources.limit_loss_event_rate cp
              ~rates:(Many_sources.responsive_profile cp ~formula_rate:fr)
          in
          let p_mid =
            Many_sources.limit_loss_event_rate cp
              ~rates:
                (Many_sources.partially_responsive_profile cp
                   ~formula_rate:fr ~responsiveness:0.5)
          in
          ( p' < p_mid && p_mid < p'',
            Printf.sprintf "p' = %.5f < p = %.5f < p'' = %.5f" p' p_mid p''
          ));
    };
    {
      id = "claim3-bottleneck";
      claim = "Claim 3 on a shared RED bottleneck: p'(TCP) <= p(TFRC) <= p''";
      run =
        (fun ~quick ->
          let cfg =
            {
              Scenario.default_config with
              seed = 21;
              n_tfrc = 4;
              n_tcp = 4;
              duration = (if quick then 80.0 else 300.0);
              warmup = (if quick then 20.0 else 60.0);
            }
          in
          let r = Result_cache.run cfg in
          let p = Scenario.pooled_loss_rate r.Scenario.tfrc in
          let p' = Scenario.pooled_loss_rate r.Scenario.tcp in
          let p'' =
            match r.Scenario.probe with
            | Some m -> m.Scenario.loss_event_rate
            | None -> nan
          in
          ( p' <= p *. 1.5 && p <= p'' *. 1.5,
            Printf.sprintf "p' = %.4f, p = %.4f, p'' = %.4f (50%% slack)" p' p
              p'' ));
    };
    {
      id = "claim4-closed-form";
      claim = "Claim 4: p'/p = 16/9 at beta = 1/2, confirmed by simulation";
      run =
        (fun ~quick:_ ->
          let params =
            { Few_flows.alpha = 1.0; beta = 0.5; capacity = 100.0 }
          in
          let analytic = Few_flows.loss_rate_ratio ~beta:0.5 in
          let sim =
            Few_flows.simulate_aimd ~cycles:500 params
            /. Few_flows.simulate_ebrc ~cycles:500 params
          in
          ( abs_float (analytic -. (16.0 /. 9.0)) < 1e-12
            && abs_float (sim -. analytic) < 0.02 *. analytic,
            Printf.sprintf "analytic %.4f, simulated %.4f" analytic sim ));
    };
    {
      id = "prop2-comprehensive";
      claim = "Proposition 2: comprehensive >= basic throughput";
      run =
        (fun ~quick ->
          let cycles = if quick then 30_000 else 200_000 in
          let mk seed =
            let rng = Prng.create ~seed in
            Loss_process.iid_shifted_exponential rng ~p:0.05 ~cv:0.9
          in
          let formula = Formula.create ~rtt:1.0 Formula.Pftk_simplified in
          let basic =
            Basic_control.simulate ~formula
              ~estimator:(Loss_interval.of_tfrc ~l:8)
              ~process:(mk 31) ~cycles ()
          in
          let compr =
            Ebrc_control.Comprehensive_control.simulate ~formula
              ~estimator:(Loss_interval.of_tfrc ~l:8)
              ~process:(mk 31) ~cycles ()
          in
          ( compr.Ebrc_control.Comprehensive_control.normalized
            >= basic.Basic_control.normalized -. 0.01,
            Printf.sprintf "comprehensive %.3f >= basic %.3f"
              compr.Ebrc_control.Comprehensive_control.normalized
              basic.Basic_control.normalized ));
    };
    {
      id = "exact-vs-mc";
      claim = "Exact Erlang quadrature agrees with Monte Carlo";
      run =
        (fun ~quick ->
          let cycles = if quick then 100_000 else 500_000 in
          let formula = Formula.create ~rtt:1.0 Formula.Pftk_simplified in
          let exact =
            Exact.normalized_throughput ~formula ~l:8 ~p:0.1 ~cv:0.9
          in
          let rng = Prng.create ~seed:770 in
          let process = Loss_process.iid_shifted_exponential rng ~p:0.1 ~cv:0.9 in
          let estimator =
            Loss_interval.create ~weights:(Ebrc_estimator.Weights.uniform 8)
          in
          let mc =
            (Basic_control.simulate ~formula ~estimator ~process ~cycles ())
              .Basic_control.normalized
          in
          ( abs_float (mc -. exact) < 0.02 *. exact,
            Printf.sprintf "exact %.4f vs MC %.4f" exact mc ));
    };
    {
      id = "iv-b-sublinear";
      claim =
        "Section IV-B conjecture: large-window TCP growth is sub-linear";
      run =
        (fun ~quick ->
          (* Reuse the A6 machinery via a direct single run. *)
          let module Engine = Ebrc_sim.Engine in
          let module Link = Ebrc_net.Link in
          let module QD = Ebrc_net.Queue_discipline in
          let module TS = Ebrc_tcp.Tcp_sender in
          let module TR = Ebrc_tcp.Tcp_receiver in
          let module Trace = Ebrc_sim.Trace in
          let duration = if quick then 120.0 else 600.0 in
          let engine = Engine.create () in
          let rng = Prng.create ~seed:31 in
          let queue =
            QD.create ~service_rate:1250.0 ~capacity:200 QD.Drop_tail
          in
          let link =
            Link.create ~engine ~rate_bps:10e6 ~delay:0.025 ~queue ~rng
          in
          let sender = TS.create ~engine ~flow:0 () in
          let receiver = TR.create ~engine ~flow:0 () in
          TS.set_transmit sender (fun pkt -> Link.send link pkt);
          Link.set_deliver link (fun pkt -> TR.on_data receiver pkt);
          TR.set_ack_sink receiver (fun ~acked ~dup ~echo ->
              ignore
                (Engine.schedule_after engine ~delay:0.025 (fun () ->
                     TS.on_ack sender ~acked ~dup ~echo)));
          let current = ref (Trace.create ()) in
          let best = ref (Trace.create ()) in
          let last_events = ref 0 in
          TS.set_rate_sample_hook sender (fun w ->
              let ev = TS.loss_events sender in
              if ev <> !last_events then begin
                last_events := ev;
                if Trace.length !current > Trace.length !best then
                  best := !current;
                current := Trace.create ()
              end;
              if TS.phase sender = TS.Congestion_avoidance then
                Trace.record !current ~time:(Engine.now engine) ~value:w);
          ignore (Engine.schedule engine ~at:0.0 (fun () -> TS.start sender));
          ignore (Engine.run ~until:duration engine);
          if Trace.length !current > Trace.length !best then best := !current;
          let ratio = Trace.growth_linearity !best in
          ( ratio < 0.95,
            Printf.sprintf "slope ratio (2nd/1st half) = %.3f < 1" ratio ));
    };
    {
      id = "competition-collapse";
      claim =
        "Competing AIMD+EBRC: the loss-rate ratio collapses toward 1 \
         (less pronounced than isolated, as the paper notes)";
      run =
        (fun ~quick ->
          let cycles = if quick then 500 else 5000 in
          let params =
            { Few_flows.alpha = 1.0; beta = 0.5; capacity = 100.0 }
          in
          let r = Few_flows.simulate_competition ~cycles params in
          ( r.Few_flows.ratio < Few_flows.loss_rate_ratio ~beta:0.5
            && r.Few_flows.ratio > 0.8,
            Printf.sprintf "competing %.3f < isolated %.3f" r.Few_flows.ratio
              (Few_flows.loss_rate_ratio ~beta:0.5) ));
    };
    {
      id = "feller-ordering";
      claim =
        "Feller paradox: the event-average rate exceeds the time-average \
         throughput";
      run =
        (fun ~quick ->
          let cycles = if quick then 50_000 else 300_000 in
          let r =
            run_basic ~seed:23 ~kind:Formula.Sqrt ~l:4 ~p:0.1 ~cv:0.9 ~cycles
          in
          ( r.Basic_control.palm_mean_rate >= r.Basic_control.throughput,
            Printf.sprintf "E0[X] = %.2f >= x_bar = %.2f"
              r.Basic_control.palm_mean_rate r.Basic_control.throughput ));
    };
  ]

type outcome = { check : check; passed : bool; evidence : string;
                 seconds : float }

(* Each check is a self-contained experiment with its own seeds, so the
   grid parallelises cleanly; only the wall-clock [seconds] column
   depends on [jobs]. A check that raises (budget exceeded, crashed
   substrate, ...) is recorded as FAIL with the exception as evidence
   instead of killing the whole validation run. *)
let run_all ?(quick = true) ?(jobs = 1) () =
  let one check =
    let t0 = Unix.gettimeofday () in
    let passed, evidence =
      match check.run ~quick with
      | outcome -> outcome
      | exception e ->
          (false, Printf.sprintf "raised %s" (Printexc.to_string e))
    in
    { check; passed; evidence; seconds = Unix.gettimeofday () -. t0 }
  in
  if jobs <= 1 then List.map one checks
  else Pool.map_list (Pool.shared ~domains:jobs ()) one checks

let to_table outcomes =
  let t =
    Table.create ~title:"Paper-claim validation"
      ~header:[ "check"; "verdict"; "evidence"; "secs" ]
  in
  List.fold_left
    (fun t o ->
      Table.add_row t
        [
          o.check.id;
          (if o.passed then "PASS" else "FAIL");
          o.evidence;
          Printf.sprintf "%.1f" o.seconds;
        ])
    t outcomes

let all_passed outcomes = List.for_all (fun o -> o.passed) outcomes
