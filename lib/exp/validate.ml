(* Automated validation of the paper's qualitative claims: each check
   declares the experiments it needs as [Work.t] and projects their
   results to a verdict on the *shape* the paper predicts (orderings,
   crossovers, approximate factors), so a regression in any substrate
   that would silently change a scientific conclusion fails loudly.
   Experiments a check shares with a figure are defined once, in
   [Figures]. Exposed through `ebrc validate` and usable as a
   scientific CI gate. *)

module Formula = Ebrc_formulas.Formula
module Conditions = Ebrc_formulas.Conditions
module Loss_interval = Ebrc_estimator.Loss_interval
module Loss_process = Ebrc_lossproc.Loss_process
module Basic_control = Ebrc_control.Basic_control
module Comprehensive_control = Ebrc_control.Comprehensive_control
module Exact = Ebrc_control.Exact
module Few_flows = Ebrc_analysis.Few_flows
module Prng = Ebrc_rng.Prng
module Tm = Ebrc_telemetry.Telemetry

type check = {
  id : string;
  claim : string;             (* what the paper asserts *)
  run : quick:bool -> (bool * string) Work.t;  (* (pass, evidence) *)
}

let ( let+ ) w f = Work.map f w
let ( and+ ) = Work.both
let task = Work.task

let basic_cycles ~quick = if quick then 50_000 else 300_000

let normalized ~seed ~kind ~l ~p ~cycles =
  task (fun () ->
      (Figures.run_basic ~seed ~kind ~l ~p ~cv:0.9 ~cycles)
        .Basic_control.normalized)

let checks : check list =
  [
    {
      id = "prop4-ratio";
      claim = "PFTK-standard deviates from convexity by r = 1.0026";
      run =
        (fun ~quick ->
          let+ r = task (fun () -> Figures.deviation_ratio ~quick) in
          ( abs_float (r -. 1.0026) < 5e-4,
            Printf.sprintf "measured r = %.5f" r ));
    };
    {
      id = "f1-conditions";
      claim = "(F1) holds for SQRT and PFTK-simplified";
      run =
        (fun ~quick:_ ->
          let+ ok =
            task (fun () ->
                Conditions.f1_holds (Formula.create Formula.Sqrt)
                && Conditions.f1_holds
                     (Formula.create Formula.Pftk_simplified))
          in
          (ok, "convexity classifier on x in [1.5, 1000]"));
    };
    {
      id = "thm1-conservative";
      claim = "Theorem 1: iid losses + (F1) give x/f(p) <= 1";
      run =
        (fun ~quick ->
          let cycles = basic_cycles ~quick in
          let+ rs =
            Work.list
              (List.map
                 (fun (kind, l, p) -> normalized ~seed:11 ~kind ~l ~p ~cycles)
                 [
                   (Formula.Sqrt, 4, 0.1); (Formula.Sqrt, 16, 0.3);
                   (Formula.Pftk_simplified, 4, 0.1);
                   (Formula.Pftk_simplified, 16, 0.3);
                 ])
          in
          let worst =
            List.fold_left (fun w r -> if r > w then r else w) 0.0 rs
          in
          (worst <= 1.02, Printf.sprintf "worst normalized = %.3f" worst));
    };
    {
      id = "claim1-l-ordering";
      claim = "Claim 1: larger L is less conservative";
      run =
        (fun ~quick ->
          let cycles = basic_cycles ~quick in
          let v l =
            normalized ~seed:13 ~kind:Formula.Pftk_simplified ~l ~p:0.1 ~cycles
          in
          let+ v2 = v 2 and+ v8 = v 8 and+ v16 = v 16 in
          ( v2 < v8 && v8 < v16,
            Printf.sprintf "L=2: %.3f < L=8: %.3f < L=16: %.3f" v2 v8 v16 ));
    };
    {
      id = "claim1-p-ordering";
      claim = "Claim 1: heavier loss is more conservative (PFTK)";
      run =
        (fun ~quick ->
          let cycles = basic_cycles ~quick in
          let v p =
            normalized ~seed:17 ~kind:Formula.Pftk_simplified ~l:8 ~p ~cycles
          in
          let+ a = v 0.02 and+ b = v 0.3 in
          (b < a, Printf.sprintf "p=0.02: %.3f > p=0.3: %.3f" a b));
    };
    {
      id = "sqrt-invariance";
      claim = "SQRT normalized throughput is invariant in p";
      run =
        (fun ~quick:_ ->
          let e p =
            Exact.normalized_throughput
              ~formula:(Formula.create Formula.Sqrt) ~l:4 ~p ~cv:0.9
          in
          let+ a, b = task (fun () -> (e 0.01, e 0.4)) in
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
            task (fun () ->
                (Audio_scenario.run
                   {
                     Audio_scenario.default_config with
                     drop_p;
                     formula_kind = kind;
                     duration;
                     warmup = duration /. 10.0;
                   })
                  .Audio_scenario.normalized_throughput)
          in
          let+ sqrt_heavy = run Formula.Sqrt 0.2
          and+ pftk_heavy = run Formula.Pftk_simplified 0.2 in
          ( sqrt_heavy <= 1.02 && pftk_heavy > 1.0,
            Printf.sprintf "SQRT: %.3f <= 1 < PFTK: %.3f" sqrt_heavy
              pftk_heavy ));
    };
    {
      id = "claim3-ordering";
      claim = "Claim 3: p' <= p <= p'' in the many-sources limit";
      run =
        (fun ~quick:_ ->
          let+ c = task (fun () -> Figures.claim3 ~responsiveness:0.5) in
          let p' = c.p_responsive and p = c.p_partial and p'' = c.p_poisson in
          ( p' < p && p < p'',
            Printf.sprintf "p' = %.5f < p = %.5f < p'' = %.5f" p' p p'' ));
    };
    {
      id = "claim3-bottleneck";
      claim = "Claim 3 on a shared RED bottleneck: p'(TCP) <= p(TFRC) <= p''";
      run =
        (fun ~quick ->
          let+ r =
            Work.scenario
              {
                Scenario.default_config with
                seed = 21;
                n_tfrc = 4;
                n_tcp = 4;
                duration = (if quick then 80.0 else 300.0);
                warmup = (if quick then 20.0 else 60.0);
              }
          in
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
          let+ c = task (fun () -> Figures.claim4 ~beta:0.5) in
          ( abs_float (c.analytic -. (16.0 /. 9.0)) < 1e-12
            && abs_float (c.simulated -. c.analytic) < 0.02 *. c.analytic,
            Printf.sprintf "analytic %.4f, simulated %.4f" c.analytic
              c.simulated ));
    };
    {
      id = "prop2-comprehensive";
      claim = "Proposition 2: comprehensive >= basic throughput";
      run =
        (fun ~quick ->
          let cycles = if quick then 30_000 else 200_000 in
          let inputs () =
            let rng = Prng.create ~seed:31 in
            ( Formula.create ~rtt:1.0 Formula.Pftk_simplified,
              Loss_interval.of_tfrc ~l:8,
              Loss_process.iid_shifted_exponential rng ~p:0.05 ~cv:0.9 )
          in
          let+ basic =
            task (fun () ->
                let formula, estimator, process = inputs () in
                (Basic_control.simulate ~formula ~estimator ~process ~cycles ())
                  .Basic_control.normalized)
          and+ compr =
            task (fun () ->
                let formula, estimator, process = inputs () in
                (Comprehensive_control.simulate ~formula ~estimator ~process
                   ~cycles ())
                  .Comprehensive_control.normalized)
          in
          ( compr >= basic -. 0.01,
            Printf.sprintf "comprehensive %.3f >= basic %.3f" compr basic ));
    };
    {
      id = "exact-vs-mc";
      claim = "Exact Erlang quadrature agrees with Monte Carlo";
      run =
        (fun ~quick ->
          let cycles = if quick then 100_000 else 500_000 in
          let+ exact, mc = task (fun () -> Figures.exact_vs_mc ~cycles ~l:8) in
          ( abs_float (mc -. exact) < 0.02 *. exact,
            Printf.sprintf "exact %.4f vs MC %.4f" exact mc ));
    };
    {
      id = "iv-b-sublinear";
      claim =
        "Section IV-B conjecture: large-window TCP growth is sub-linear";
      run =
        (fun ~quick ->
          let+ r = task (fun () -> Figures.window_growth ~quick ~buffer:200) in
          ( r.slope_ratio < 0.95,
            Printf.sprintf "slope ratio (2nd/1st half) = %.3f < 1"
              r.slope_ratio ));
    };
    {
      id = "competition-collapse";
      claim =
        "Competing AIMD+EBRC: the loss-rate ratio collapses toward 1 \
         (less pronounced than isolated, as the paper notes)";
      run =
        (fun ~quick ->
          let+ r = task (fun () -> Figures.competition ~quick ~beta:0.5) in
          let isolated = Few_flows.loss_rate_ratio ~beta:0.5 in
          ( r.Few_flows.ratio < isolated && r.Few_flows.ratio > 0.8,
            Printf.sprintf "competing %.3f < isolated %.3f" r.Few_flows.ratio
              isolated ));
    };
    {
      id = "feller-ordering";
      claim =
        "Feller paradox: the event-average rate exceeds the time-average \
         throughput";
      run =
        (fun ~quick ->
          let+ r =
            task (fun () ->
                Figures.run_basic ~seed:23 ~kind:Formula.Sqrt ~l:4 ~p:0.1
                  ~cv:0.9 ~cycles:(basic_cycles ~quick))
          in
          ( r.Basic_control.palm_mean_rate >= r.Basic_control.throughput,
            Printf.sprintf "E0[X] = %.2f >= x_bar = %.2f"
              r.Basic_control.palm_mean_rate r.Basic_control.throughput ));
    };
  ]

type outcome = { check : check; passed : bool; evidence : string }

(* The one experiment path: every check's work runs as one [Work.run]
   batch, so verdicts and evidence are identical for every [jobs]. A
   check whose leaf or projection raised (budget exceeded, crashed
   substrate, ...) is a FAIL with the exception as evidence; its
   siblings still run. *)
let run ?jobs ~quick checks =
  let results =
    Tm.with_span ~cat:"validate" "validate:batch" (fun () ->
        Work.run ?jobs (List.map (fun c -> (c.id, c.run ~quick)) checks))
  in
  List.map2
    (fun check (_, r) ->
      match r with
      | Ok (passed, evidence) -> { check; passed; evidence }
      | Error (e : Work.error) ->
          { check; passed = false;
            evidence = Printf.sprintf "raised %s" (Printexc.to_string e.exn) })
    checks results

let to_table outcomes =
  List.fold_left
    (fun t o ->
      Table.add_row t
        [ o.check.id; (if o.passed then "PASS" else "FAIL"); o.evidence ])
    (Table.create ~title:"Paper-claim validation"
       ~header:[ "check"; "verdict"; "evidence" ])
    outcomes

let all_passed outcomes = List.for_all (fun o -> o.passed) outcomes
