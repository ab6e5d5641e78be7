(* One runner per paper figure/table. A runner declares its scenario
   runs and seeded tasks as [Work.t] and projects their results to
   Table.t values whose rows are the series the paper plots; `quick`
   shrinks grids and run lengths so the whole suite fits in a benchmark
   run, while the full mode reproduces the paper-scale sweeps.

   The experiment index lives in DESIGN.md; paper-vs-measured notes in
   EXPERIMENTS.md. *)

module Formula = Ebrc_formulas.Formula
module Conditions = Ebrc_formulas.Conditions
module Convexity = Ebrc_numerics.Convexity
module Loss_interval = Ebrc_estimator.Loss_interval
module Weights = Ebrc_estimator.Weights
module Loss_process = Ebrc_lossproc.Loss_process
module Basic_control = Ebrc_control.Basic_control
module Comprehensive_control = Ebrc_control.Comprehensive_control
module Prng = Ebrc_rng.Prng
module Descriptive = Ebrc_stats.Descriptive
module Breakdown = Ebrc_analysis.Breakdown
module Few_flows = Ebrc_analysis.Few_flows
module Many_sources = Ebrc_analysis.Many_sources
module Tm = Ebrc_telemetry.Telemetry

let c_figures_run =
  Tm.Probe.count ~help:"figure/table runners executed" "exp.figures_run"

let c_tables =
  Tm.Probe.count ~help:"result tables produced by runners" "exp.tables"

let cell = Table.cell_float

let table ~title ~header rows =
  List.fold_left Table.add_row (Table.create ~title ~header) rows

(* Declaration helpers. [let+] projects a declared result; [tasks]
   declares one self-contained task per element. *)
let ( let+ ) w f = Work.map f w
let each f xs = Work.list (List.map f xs)
let tasks f xs = each (fun x -> Work.task (fun () -> f x)) xs

(* ------------------------------------------------------------------ *)
(* Figure 1: the functionals x -> f(1/x) and x -> 1/f(1/x).            *)
(* ------------------------------------------------------------------ *)

let fig1 ~quick:_ =
  Work.task @@ fun () ->
  let formulas =
    List.map (fun k -> Formula.create ~rtt:1.0 k) Formula.all_paper_kinds
  in
  let xs = [ 1.5; 2.0; 3.0; 5.0; 8.0; 12.0; 20.0; 30.0; 50.0 ] in
  let t =
    table ~title:"Figure 1: f(1/x) and 1/f(1/x) (r=1, q=4r)"
      ~header:
        ("x"
        :: List.concat_map
             (fun f -> [ Formula.name f ^ " f(1/x)"; Formula.name f ^ " g(x)" ])
             formulas)
      (List.map
         (fun x ->
           cell ~decimals:1 x
           :: List.concat_map
                (fun f -> [ cell (Formula.h f x); cell (Formula.g f x) ])
                formulas)
         xs)
  in
  let verdicts =
    List.map
      (fun f ->
        let g_c = Convexity.classify (Formula.g f) ~lo:1.5 ~hi:50.0 in
        let h_c = Convexity.classify (Formula.h f) ~lo:1.5 ~hi:50.0 in
        let show = function
          | Convexity.Convex -> "convex"
          | Convexity.Concave -> "concave"
          | Convexity.Neither -> "neither"
        in
        Printf.sprintf "%s: g is %s, f(1/x) is %s" (Formula.name f)
          (show g_c) (show h_c))
      formulas
  in
  [ List.fold_left Table.add_note t verdicts ]

(* ------------------------------------------------------------------ *)
(* Figure 2: convex closure of g for PFTK-standard; r = 1.0026.        *)
(* ------------------------------------------------------------------ *)

(* The paper's Figure 2 places the PFTK-standard convexity kink at
   x = 3.375, i.e. at x = c2^2 with b = 1 acknowledged packet per ACK;
   we reproduce that parameterisation (with b = 2 the same kink sits at
   x = 6.75 and the analysis is unchanged). *)
let kink_g () = Formula.g (Formula.create ~rtt:1.0 ~b:1.0 Formula.Pftk_standard)
let kink_samples ~quick = if quick then 8192 else 65536
let kink_lo = 3.25
let kink_hi = 3.5

let deviation_ratio ~quick =
  Convexity.deviation_ratio ~samples:(kink_samples ~quick) (kink_g ())
    ~lo:kink_lo ~hi:kink_hi

let fig2 ~quick =
  Work.task @@ fun () ->
  let g = kink_g () and lo = kink_lo and hi = kink_hi in
  let closure =
    Convexity.convex_closure ~samples:(kink_samples ~quick) g ~lo ~hi
  in
  let n = 11 in
  let t =
    table ~title:"Figure 2: g vs its convex closure g** (PFTK-standard)"
      ~header:[ "x"; "g(x)"; "g**(x)"; "g/g**" ]
      (List.init n (fun i ->
           let x =
             lo +. (float_of_int i *. (hi -. lo) /. float_of_int (n - 1))
           in
           let gx = g x and g2 = Convexity.closure_eval closure x in
           [
             cell ~decimals:4 x; cell gx; cell g2; cell ~decimals:5 (gx /. g2);
           ]))
  in
  [
    Table.add_note t
      (Printf.sprintf "deviation-from-convexity ratio r = %.5f (paper: 1.0026)"
         (deviation_ratio ~quick));
  ]

(* ------------------------------------------------------------------ *)
(* Figures 3 & 4: basic-control numerical experiments.                 *)
(* ------------------------------------------------------------------ *)

let run_basic ~seed ~kind ~l ~p ~cv ~cycles =
  let rng = Prng.create ~seed in
  let process = Loss_process.iid_shifted_exponential rng ~p ~cv in
  let formula = Formula.create ~rtt:1.0 kind in
  let estimator = Loss_interval.of_tfrc ~l in
  Basic_control.simulate ~formula ~estimator ~process ~cycles ()

(* One row per [x] and one task per (x, L) cell: normalized throughput
   against the estimator window L = 1..16. *)
let l_grid ~title ~label xs point =
  let ls = [ 1; 2; 4; 8; 16 ] in
  let+ rows = each (fun x -> tasks (point x) ls) xs in
  table ~title
    ~header:(label :: List.map (fun l -> Printf.sprintf "L=%d" l) ls)
    (List.map2
       (fun x row -> cell ~decimals:2 x :: List.map (cell ~decimals:3) row)
       xs rows)

let fig3 ~quick =
  let cycles = if quick then 20_000 else 400_000 in
  let ps =
    if quick then [ 0.02; 0.1; 0.2; 0.3; 0.4 ]
    else [ 0.01; 0.02; 0.05; 0.1; 0.15; 0.2; 0.25; 0.3; 0.35; 0.4 ]
  in
  let cv = 1.0 -. (1.0 /. 1000.0) in
  let make kind title =
    l_grid ~title ~label:"p" ps (fun p l ->
        (run_basic ~seed:(1000 + l) ~kind ~l ~p ~cv ~cycles)
          .Basic_control.normalized)
  in
  Work.list
    [
      make Formula.Sqrt
        "Figure 3 (left): basic control, SQRT — normalized throughput vs p";
      make Formula.Pftk_simplified
        "Figure 3 (right): basic control, PFTK-simplified — normalized \
         throughput vs p";
    ]

let fig4 ~quick =
  let cycles = if quick then 20_000 else 400_000 in
  let cvs =
    if quick then [ 0.2; 0.5; 0.8; 0.99 ]
    else [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 0.99 ]
  in
  let make p title =
    l_grid ~title ~label:"cv" cvs (fun cv l ->
        (run_basic ~seed:(2000 + l) ~kind:Formula.Pftk_simplified ~l ~p ~cv
           ~cycles)
          .Basic_control.normalized)
  in
  Work.list
    [
      make 0.01
        "Figure 4 (top): basic control, PFTK-simplified, p=1/100 — \
         normalized throughput vs cv";
      make 0.1
        "Figure 4 (bottom): basic control, PFTK-simplified, p=1/10 — \
         normalized throughput vs cv";
    ]

(* ------------------------------------------------------------------ *)
(* Shared bottleneck sweep for Figures 5, 7, 8, 9.                     *)
(* ------------------------------------------------------------------ *)

type sweep_point = {
  l : int;
  n : int;
  tfrc_p : float;
  tcp_p : float;
  probe_p : float;
  tfrc_x : float;
  tcp_x : float;
  tfrc_rtt : float;
  tcp_rtt : float;
  tfrc_normalized : float;    (* mean over flows of x / f(p, r) *)
  cov_norm : float;           (* cov[theta, thetahat] * p^2, pooled *)
  tcp_formula_rate : float;   (* f(p', r') *)
}

(* Figures 5, 7, 8 and 9 each declare this sweep; a batch running
   several of them runs each point once. *)
let bottleneck_sweep ~quick =
  let ls = if quick then [ 2; 8 ] else [ 2; 4; 8; 16 ] in
  let ns = if quick then [ 4; 24 ] else [ 2; 4; 8; 16; 32; 64; 96 ] in
  let duration = if quick then 80.0 else 400.0 in
  let warmup = if quick then 20.0 else 80.0 in
  each
    (fun (l, n) ->
      let cfg =
        {
          Scenario.default_config with
          seed = 42 + (100 * l) + n;
          n_tfrc = n;
          n_tcp = n;
          with_probe = true;
          tfrc_l = l;
          duration;
          warmup;
        }
      in
      let+ r = Work.scenario cfg in
      let formula =
        Formula.create ~rtt:(Scenario.base_rtt cfg) cfg.tfrc_formula_kind
      in
      let pairs = Scenario.pooled_pairs r.tfrc in
      let tfrc_p = Scenario.pooled_loss_rate r.tfrc in
      let tfrc_rtt = Scenario.mean_rtt r.tfrc in
      let tfrc_normalized =
        if tfrc_p <= 0.0 then nan
        else
          Scenario.mean_throughput r.tfrc
          /. Formula.eval (Formula.with_rtt formula ~rtt:tfrc_rtt) tfrc_p
      in
      let cov_norm =
        if Array.length pairs < 2 then nan
        else
          let thetas = Array.map snd pairs in
          let hats = Array.map fst pairs in
          Descriptive.covariance thetas hats *. tfrc_p *. tfrc_p
      in
      let tcp_p = Scenario.pooled_loss_rate r.tcp in
      let tcp_rtt = Scenario.mean_rtt r.tcp in
      let tcp_formula_rate =
        if tcp_p <= 0.0 then nan
        else Formula.eval (Formula.with_rtt formula ~rtt:tcp_rtt) tcp_p
      in
      {
        l;
        n;
        tfrc_p;
        tcp_p;
        probe_p =
          (match r.probe with Some m -> m.loss_event_rate | None -> nan);
        tfrc_x = Scenario.mean_throughput r.tfrc;
        tcp_x = Scenario.mean_throughput r.tcp;
        tfrc_rtt;
        tcp_rtt;
        tfrc_normalized;
        cov_norm;
        tcp_formula_rate;
      })
    (List.concat_map (fun l -> List.map (fun n -> (l, n)) ns) ls)

let fig5 ~quick =
  let+ pts = bottleneck_sweep ~quick in
  let rows value =
    List.map
      (fun pt ->
        [ string_of_int pt.l; string_of_int pt.n; cell ~decimals:5 pt.tfrc_p;
          value pt ])
      pts
  in
  [
    table
      ~title:
        "Figure 5 (top): TFRC over RED bottleneck — normalized throughput vs p"
      ~header:[ "L"; "N"; "p"; "x/f(p,r)" ]
      (rows (fun pt -> cell ~decimals:3 pt.tfrc_normalized));
    table ~title:"Figure 5 (bottom): cov[theta,thetahat] p^2 vs p"
      ~header:[ "L"; "N"; "p"; "cov*p^2" ]
      (rows (fun pt -> cell ~decimals:4 pt.cov_norm));
  ]

let fig7 ~quick =
  let+ pts = bottleneck_sweep ~quick in
  [
    table
      ~title:
        "Figure 7: loss-event rates of TFRC (p), TCP (p'), Poisson (p'') vs \
         number of connections"
      ~header:
        [ "L"; "connections"; "p (TFRC)"; "p' (TCP)"; "p'' (Poisson)";
          "p'<=p<=p''" ]
      (List.map
         (fun pt ->
           let ordered =
             (not (Float.is_nan pt.probe_p))
             && pt.tcp_p <= pt.tfrc_p *. 1.10
             && pt.tfrc_p <= pt.probe_p *. 1.10
           in
           [
             string_of_int pt.l;
             string_of_int (2 * pt.n);
             cell ~decimals:5 pt.tfrc_p;
             cell ~decimals:5 pt.tcp_p;
             cell ~decimals:5 pt.probe_p;
             (if ordered then "yes" else "no");
           ])
         pts);
  ]

let fig8 ~quick =
  let+ pts = bottleneck_sweep ~quick in
  [
    table ~title:"Figure 8: TFRC/TCP throughput ratio vs number of connections"
      ~header:[ "L"; "connections"; "x(TFRC)/x(TCP)" ]
      (List.map
         (fun pt ->
           [
             string_of_int pt.l;
             string_of_int (2 * pt.n);
             cell ~decimals:3 (pt.tfrc_x /. pt.tcp_x);
           ])
         pts);
  ]

let fig9 ~quick =
  let+ pts = bottleneck_sweep ~quick in
  [
    table
      ~title:"Figure 9: TCP throughput vs PFTK-standard prediction f(p', r')"
      ~header:[ "L"; "N"; "f(p',r') pkt/s"; "measured x' pkt/s"; "x'/f" ]
      (List.map
         (fun pt ->
           [
             string_of_int pt.l;
             string_of_int pt.n;
             cell ~decimals:1 pt.tcp_formula_rate;
             cell ~decimals:1 pt.tcp_x;
             cell ~decimals:3 (pt.tcp_x /. pt.tcp_formula_rate);
           ])
         pts);
  ]

(* ------------------------------------------------------------------ *)
(* Figure 6: the Claim-2 audio experiments.                            *)
(* ------------------------------------------------------------------ *)

let fig6 ~quick =
  let drop_ps =
    if quick then [ 0.02; 0.1; 0.2 ]
    else [ 0.01; 0.02; 0.05; 0.1; 0.15; 0.2; 0.25 ]
  in
  let kinds = Formula.all_paper_kinds in
  let duration = if quick then 600.0 else 4000.0 in
  let+ rows =
    each
      (fun p ->
        tasks
          (fun kind ->
            Audio_scenario.run
              {
                Audio_scenario.default_config with
                drop_p = p;
                formula_kind = kind;
                duration;
                warmup = duration /. 10.0;
              })
          kinds)
      drop_ps
  in
  let make ~title value =
    table ~title
      ~header:
        ("p (drop prob)"
        :: List.map (fun k -> Formula.name (Formula.create k)) kinds)
      (List.map2
         (fun p rs -> cell ~decimals:2 p :: List.map value rs)
         drop_ps rows)
  in
  [
    make
      ~title:
        "Figure 6 (top): audio source over Bernoulli dropper — normalized \
         throughput vs p (L=4, basic control)"
      (fun (r : Audio_scenario.result) ->
        cell ~decimals:3 r.normalized_throughput);
    make ~title:"Figure 6 (bottom): squared CV of thetahat vs p"
      (fun (r : Audio_scenario.result) -> cell ~decimals:4 r.cv2_thetahat);
  ]

(* ------------------------------------------------------------------ *)
(* Figures 10-16, 18, 19: path-profile experiments.                    *)
(* ------------------------------------------------------------------ *)

type path_point = {
  pn : int;
  ebrc_p : float;
  breakdown : Breakdown.t;
  path_cov_norm : float;
}

(* Figures 10-16, 18 and 19 declare overlapping profiles; a batch
   running several of them runs each point once. *)
let run_profile ~quick (profile : Paths.profile) =
  let duration = if quick then 80.0 else 400.0 in
  let warmup = if quick then 20.0 else 80.0 in
  let n_grid =
    if quick then
      match profile.Paths.n_grid with a :: _ :: b :: _ -> [ a; b ] | l -> l
    else profile.Paths.n_grid
  in
  let point n =
    let cfg = Paths.to_config ~duration ~warmup profile ~n in
    let+ r = Work.scenario cfg in
    let tfrc_p = Scenario.pooled_loss_rate r.tfrc in
    let tcp_p = Scenario.pooled_loss_rate r.tcp in
    if tfrc_p <= 0.0 || tcp_p <= 0.0 then None
    else begin
      let formula =
        Formula.create ~rtt:(Scenario.base_rtt cfg)
          cfg.Scenario.tfrc_formula_kind
      in
      let b =
        Breakdown.create
          ~ebrc:
            {
              Breakdown.throughput = Scenario.mean_throughput r.tfrc;
              p = tfrc_p;
              rtt = Scenario.mean_rtt r.tfrc;
            }
          ~tcp:
            {
              Breakdown.throughput = Scenario.mean_throughput r.tcp;
              p = tcp_p;
              rtt = Scenario.mean_rtt r.tcp;
            }
          ~formula
      in
      let pairs = Scenario.pooled_pairs r.tfrc in
      let cov_norm =
        if Array.length pairs < 2 then nan
        else
          Descriptive.covariance (Array.map snd pairs) (Array.map fst pairs)
          *. tfrc_p *. tfrc_p
      in
      Some { pn = n; ebrc_p = tfrc_p; breakdown = b; path_cov_norm = cov_norm }
    end
  in
  Work.map (List.filter_map Fun.id) (each point n_grid)

(* One row (profile name, N, value) per point of several profiles. *)
let profile_table ~quick ~title ~header profiles value =
  let+ pts = each (run_profile ~quick) profiles in
  table ~title ~header
    (List.concat
       (List.map2
          (fun profile ->
            List.map (fun pt ->
                [ profile.Paths.name; string_of_int pt.pn; value pt ]))
          profiles pts))

let friendliness pt =
  cell ~decimals:3 (Breakdown.friendliness_ratio pt.breakdown)

let fig10 ~quick =
  (* Lab, Internet and the cable-modem receiver — the paper's three
     panels of Figure 10. *)
  let profiles =
    Paths.lab_profiles ~pkt:1000 @ Paths.internet_profiles
    @ [ Paths.cable_modem ]
  in
  let+ t =
    profile_table ~quick
      ~title:
        "Figure 10: normalized covariance cov[theta,thetahat] p^2 per path"
      ~header:[ "path"; "N"; "cov*p^2" ]
      profiles
      (fun pt -> cell ~decimals:4 pt.path_cov_norm)
  in
  [ Table.add_note t "paper: mostly near zero; noticeably negative for UMELB \
                      (batch losses)" ]

let breakdown_table ~title pts =
  table ~title
    ~header:[ "N"; "p"; "x/f(p,r)"; "p'/p"; "r'/r"; "x'/f(p',r')"; "x/x'" ]
    (List.map
       (fun pt ->
         let b = pt.breakdown in
         [
           string_of_int pt.pn;
           cell ~decimals:5 pt.ebrc_p;
           cell ~decimals:3 (Breakdown.conservativeness_ratio b);
           cell ~decimals:3 (Breakdown.loss_rate_ratio b);
           cell ~decimals:3 (Breakdown.rtt_ratio b);
           cell ~decimals:3 (Breakdown.tcp_obedience_ratio b);
           cell ~decimals:3 (Breakdown.friendliness_ratio b);
         ])
       pts)

let fig_profile_breakdown ~quick ~fig_id profile =
  let+ pts = run_profile ~quick profile in
  [
    breakdown_table
      ~title:
        (Printf.sprintf
           "Figure %d: %s — TCP-friendliness breakdown (x/f, p'/p, r'/r, \
            x'/f(p',r'))"
           fig_id profile.Paths.name)
      pts;
  ]

let fig11 ~quick =
  let+ t =
    profile_table ~quick
      ~title:"Figure 11: Internet paths — TFRC/TCP throughput ratio vs p"
      ~header:[ "path"; "N"; "x/x'" ]
      Paths.internet_profiles friendliness
  in
  [ t ]

let fig12 ~quick = fig_profile_breakdown ~quick ~fig_id:12 Paths.inria
let fig13 ~quick = fig_profile_breakdown ~quick ~fig_id:13 Paths.kth
let fig14 ~quick = fig_profile_breakdown ~quick ~fig_id:14 Paths.umass
let fig15 ~quick = fig_profile_breakdown ~quick ~fig_id:15 Paths.umelb

let fig16 ~quick =
  let+ t =
    profile_table ~quick
      ~title:"Figure 16: lab — TFRC/TCP throughput ratio vs p"
      ~header:[ "queue"; "N"; "x/x'" ]
      [ Paths.lab_droptail ~capacity:100; Paths.lab_red ~pkt:1000 ]
      friendliness
  in
  [ t ]

let fig18 ~quick =
  fig_profile_breakdown ~quick ~fig_id:18 (Paths.lab_droptail ~capacity:100)

let fig19 ~quick =
  fig_profile_breakdown ~quick ~fig_id:19 (Paths.lab_red ~pkt:1000)

(* ------------------------------------------------------------------ *)
(* Figure 17 + Claim 4: loss-event-rate ratio over a DropTail link.    *)
(* ------------------------------------------------------------------ *)

let fig17 ~quick =
  let buffers = if quick then [ 25; 100 ] else [ 10; 25; 50; 100; 200; 300 ] in
  let duration = if quick then 120.0 else 600.0 in
  let warmup = duration /. 5.0 in
  let run ~seed ~buffer ~n_tfrc ~n_tcp =
    Work.scenario
      {
        Scenario.default_config with
        seed;
        bottleneck_bps = 10e6;
        queue = Scenario.Drop_tail { capacity = buffer };
        n_tfrc;
        n_tcp;
        with_probe = false;
        duration;
        warmup;
      }
  in
  (* One row (b, p', p, p'/p) per buffer. *)
  let ratio_table ~title ~header rates =
    table ~title ~header
      (List.map2
         (fun b (p', p) ->
           [
             string_of_int b;
             cell ~decimals:5 p';
             cell ~decimals:5 p;
             cell ~decimals:3 (if p > 0.0 then p' /. p else nan);
           ])
         buffers rates)
  in
  let isolated =
    each
      (fun b ->
        let+ tcp, tfrc =
          Work.both
            (run ~seed:(4242 + b) ~buffer:b ~n_tfrc:0 ~n_tcp:1)
            (run ~seed:(4242 + b + 1) ~buffer:b ~n_tfrc:1 ~n_tcp:0)
        in
        ( Scenario.mean_loss_rate tcp.Scenario.tcp,
          Scenario.mean_loss_rate tfrc.Scenario.tfrc ))
      buffers
  in
  let competing =
    each
      (fun b ->
        let+ r = run ~seed:(777 + b) ~buffer:b ~n_tfrc:1 ~n_tcp:1 in
        (Scenario.mean_loss_rate r.tcp, Scenario.mean_loss_rate r.tfrc))
      buffers
  in
  let+ isolated, competing = Work.both isolated competing in
  [
    ratio_table
      ~title:"Figure 17 (left): p'/p, TCP and TFRC each alone on DropTail(b)"
      ~header:[ "b (packets)"; "p' (TCP alone)"; "p (TFRC alone)"; "p'/p" ]
      isolated;
    ratio_table
      ~title:
        "Figure 17 (right): p'/p, one TCP and one TFRC competing on \
         DropTail(b)"
      ~header:[ "b (packets)"; "p' (TCP)"; "p (TFRC)"; "p'/p" ]
      competing;
  ]

type claim4 = {
  p_aimd : float;
  p_ebrc : float;
  analytic : float;
  simulated : float;
}

(* One row of c4: the closed form p'/p = 4/(1+beta)^2 and the ratio of
   the deterministic cycle simulations. *)
let claim4 ~beta =
  let params = { Few_flows.alpha = 1.0; beta; capacity = 100.0 } in
  {
    p_aimd = Few_flows.aimd_loss_event_rate params;
    p_ebrc = Few_flows.ebrc_loss_event_rate params;
    analytic = Few_flows.loss_rate_ratio ~beta;
    simulated =
      Few_flows.simulate_aimd ~cycles:500 params
      /. Few_flows.simulate_ebrc ~cycles:500 params;
  }

let table_c4 ~quick:_ =
  Work.task @@ fun () ->
  let t =
    table
      ~title:
        "Claim 4 closed form: p'/p = 4/(1+beta)^2 (analytic vs deterministic \
         simulation; the paper prints (1-beta) but its 16/9 value confirms \
         (1+beta))"
      ~header:
        [ "beta"; "p' (AIMD)"; "p (EBRC)"; "ratio analytic"; "ratio simulated" ]
      (List.map
         (fun beta ->
           let r = claim4 ~beta in
           [
             cell ~decimals:2 beta;
             cell r.p_aimd;
             cell r.p_ebrc;
             cell ~decimals:4 r.analytic;
             cell ~decimals:4 r.simulated;
           ])
         [ 0.125; 0.25; 0.5; 0.75 ])
  in
  [ Table.add_note t "beta = 1/2 gives 16/9 = 1.7778, the paper's headline" ]

let table_one ~quick:_ = Work.task (fun () -> [ Paths.table_one () ])

(* Claim 3's congestion process and PFTK-standard rate (r = 50 ms),
   shared by c3 and A2. *)
let claim3_process =
  [|
    { Many_sources.p_i = 0.001; pi_i = 0.5 };
    { Many_sources.p_i = 0.01; pi_i = 0.3 };
    { Many_sources.p_i = 0.05; pi_i = 0.2 };
  |]

let claim3_rate p =
  Formula.eval (Formula.create ~rtt:0.05 Formula.Pftk_standard) p

type claim3 = {
  p_responsive : float;
  p_partial : float;
  p_poisson : float;
  partial_rates : float array;
}

(* The Eq. (13) limits of the fully responsive, the partially
   responsive and the Poisson source on Claim 3's process. *)
let claim3 ~responsiveness =
  let cp = claim3_process and formula_rate = claim3_rate in
  let limit rates = Many_sources.limit_loss_event_rate cp ~rates in
  let partial_rates =
    Many_sources.partially_responsive_profile cp ~formula_rate ~responsiveness
  in
  {
    p_responsive = limit (Many_sources.responsive_profile cp ~formula_rate);
    p_partial = limit partial_rates;
    p_poisson = limit (Many_sources.poisson_profile cp);
    partial_rates;
  }

(* Claim 3 analytic check: the many-sources limit ordering. *)
let table_c3 ~quick =
  let bounds = claim3 ~responsiveness:0.0 in
  let p' = bounds.p_responsive and p'' = bounds.p_poisson in
  let steps = if quick then 20_000 else 200_000 in
  let resps = [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
  let+ rows =
    tasks
      (fun resp ->
        let c = claim3 ~responsiveness:resp in
        let rng = Prng.create ~seed:(int_of_float (resp *. 1000.0)) in
        let mc =
          Many_sources.monte_carlo rng claim3_process ~rates:c.partial_rates
            ~mean_sojourn:100.0 ~steps
        in
        (resp, c.p_partial, mc.Many_sources.observed_p))
      resps
  in
  let t =
    table
      ~title:
        "Claim 3: many-sources limit — loss-event rate vs responsiveness \
         (Eq. 13)"
      ~header:
        [ "responsiveness"; "p (limit)"; "p (Monte-Carlo)"; "within bounds" ]
      (List.map
         (fun (resp, p_lim, mc_p) ->
           let ok = p' <= p_lim +. 1e-12 && p_lim <= p'' +. 1e-12 in
           [
             cell ~decimals:2 resp;
             cell ~decimals:5 p_lim;
             cell ~decimals:5 mc_p;
             (if ok then "yes" else "no");
           ])
         rows)
  in
  [
    Table.add_note t
      (Printf.sprintf "p' (TCP-like) = %.5f <= p <= p'' (Poisson) = %.5f" p' p'');
  ]

(* ------------------------------------------------------------------ *)
(* Ablations: design-choice experiments beyond the paper's figures.    *)
(* ------------------------------------------------------------------ *)

(* A1: TFRC weights vs uniform weights in the basic control. The
   decaying TFRC weights concentrate mass on recent intervals (higher
   estimator variability than uniform at equal L), so Claim 1 predicts
   the TFRC weighting to be slightly more conservative. *)
let ablation_weights ~quick =
  let cycles = if quick then 30_000 else 300_000 in
  let run_with ~weights ~seed =
    let rng = Prng.create ~seed in
    let process = Loss_process.iid_shifted_exponential rng ~p:0.1 ~cv:0.9 in
    let formula = Formula.create ~rtt:1.0 Formula.Pftk_simplified in
    let estimator = Loss_interval.create ~weights in
    (Basic_control.simulate ~formula ~estimator ~process ~cycles ())
      .Basic_control.normalized
  in
  let+ rows =
    tasks
      (fun l ->
        [
          string_of_int l;
          cell ~decimals:3 (run_with ~weights:(Weights.tfrc l) ~seed:(3 + l));
          cell ~decimals:3
            (run_with ~weights:(Weights.uniform l) ~seed:(3 + l));
        ])
      [ 2; 4; 8; 16 ]
  in
  [
    Table.add_note
      (table
         ~title:
           "Ablation A1: estimator weights (TFRC decaying vs uniform) — basic \
            control, PFTK-simplified, p = 0.1, cv = 0.9"
         ~header:[ "L"; "x/f(p) TFRC weights"; "x/f(p) uniform weights" ]
         rows)
      "uniform weights smooth more at equal L, so they are slightly less \
       conservative (Claim 1, second bullet)";
  ]

(* A2: Eq. (12) -> Eq. (13) convergence as the congestion-process
   timescale separates from the control timescale. *)
let ablation_eq12 ~quick:_ =
  Work.task @@ fun () ->
  let cp = claim3_process in
  let rates = Many_sources.responsive_profile cp ~formula_rate:claim3_rate in
  let limit = Many_sources.limit_loss_event_rate cp ~rates in
  [
    table
      ~title:
        "Ablation A2: Eq. (12) with finite sojourns -> Eq. (13) limit (b_i \
         -> 1)"
      ~header:[ "mean sojourn"; "p (Eq. 12)"; "p (Eq. 13 limit)"; "rel. gap" ]
      (List.map
         (fun sojourn ->
           let p12 =
             Many_sources.finite_timescale_loss_event_rate cp ~rates
               ~mean_sojourn:sojourn
           in
           [
             cell ~decimals:0 sojourn;
             cell ~decimals:6 p12;
             cell ~decimals:6 limit;
             cell ~decimals:4 (abs_float (p12 -. limit) /. limit);
           ])
         [ 1.0; 10.0; 100.0; 1000.0; 10000.0 ]);
  ]

(* A3: Claim-2 audio source over a packet-mode vs byte-mode dropper.
   Byte mode penalises long packets, creating the negative rate/duration
   correlation that restores conservativeness under PFTK heavy loss. *)
let ablation_dropper_mode ~quick =
  let duration = if quick then 800.0 else 4000.0 in
  let run mode p =
    (Audio_scenario.run
       {
         Audio_scenario.default_config with
         drop_p = p;
         formula_kind = Formula.Pftk_simplified;
         duration;
         warmup = duration /. 10.0;
         dropper_mode = mode;
       })
      .Audio_scenario.normalized_throughput
  in
  let+ rows =
    tasks
      (fun p ->
        [
          cell ~decimals:2 p;
          cell ~decimals:3 (run Audio_scenario.Packet_mode p);
          cell ~decimals:3 (run Audio_scenario.Byte_mode p);
        ])
      [ 0.1; 0.2 ]
  in
  [
    Table.add_note
      (table
         ~title:
           "Ablation A3: audio source, packet-mode vs byte-mode dropper \
            (PFTK-simplified, heavy loss)"
         ~header:[ "drop p"; "x/f(p) packet mode"; "x/f(p) byte mode" ]
         rows)
      "packet mode: cov[X,S] = 0 and the Theorem-2 overshoot stays within a \
       few percent. Byte mode makes the per-packet loss probability depend \
       on the control itself (bigger packets dropped more): the loss-event \
       rate is no longer exogenous and the control oscillates into large \
       overshoot of f(p). Claim 2's packet-mode assumption is essential, \
       not cosmetic.";
  ]

(* A4: the paper's undisplayed competition experiment — one AIMD and
   one EBRC sharing a fluid link. *)
let competition ~quick ~beta =
  Few_flows.simulate_competition
    ~cycles:(if quick then 500 else 5000)
    { Few_flows.alpha = 1.0; beta; capacity = 100.0 }

let ablation_competition ~quick =
  let+ rows =
    tasks
      (fun beta ->
        let r = competition ~quick ~beta in
        [
          cell ~decimals:2 beta;
          cell ~decimals:3 (Few_flows.loss_rate_ratio ~beta);
          cell ~decimals:3 r.Few_flows.ratio;
          cell ~decimals:3 r.Few_flows.aimd_share;
        ])
      [ 0.25; 0.5; 0.75 ]
  in
  [
    Table.add_note
      (table
         ~title:
           "Ablation A4: one AIMD + one EBRC sharing a fluid link — p'/p vs \
            the isolated closed form"
         ~header:
           [ "beta"; "p'/p isolated (analytic)"; "p'/p competing (simulated)";
             "AIMD traffic share" ]
         rows)
      "paper: 'the deviation of the loss-event rates does hold, but it is \
       somewhat less pronounced' in competition — both flows see every \
       shared congestion event, so the simulated ratio collapses toward 1";
  ]

(* A5: Figure 3 under the comprehensive control — the variant the paper
   describes as "qualitatively the same, but the effects are less
   pronounced" (its tech-report Figure 4). *)
let ablation_comprehensive_fig3 ~quick =
  let cycles = if quick then 15_000 else 150_000 in
  let ps = if quick then [ 0.02; 0.1; 0.3 ] else [ 0.01; 0.02; 0.05; 0.1; 0.2; 0.3; 0.4 ] in
  let cv = 1.0 -. (1.0 /. 1000.0) in
  let+ t =
    l_grid
      ~title:
        "Ablation A5: Figure 3 under the comprehensive control \
         (PFTK-simplified) — less pronounced conservativeness"
      ~label:"p" ps
      (fun p l ->
        let rng = Prng.create ~seed:(5000 + l) in
        let process = Loss_process.iid_shifted_exponential rng ~p ~cv in
        let formula = Formula.create ~rtt:1.0 Formula.Pftk_simplified in
        let estimator = Loss_interval.of_tfrc ~l in
        (Comprehensive_control.simulate ~formula ~estimator ~process ~cycles ())
          .Comprehensive_control.normalized)
  in
  [
    Table.add_note t
      "compare with figure 3 (basic control): same shape, higher values — \
       Proposition 2";
  ]

module Tcp_sender = Ebrc_tcp.Tcp_sender

type lone_tcp = {
  loss_events : int;
  loss_event_rate : float;
  received : int;
  mean_rtt : float;
  timeouts : int;
  fast_retransmits : int;
  ascent_samples : int;
  slope_ratio : float;
}

(* One TCP flow alone on a 10 Mb/s DropTail([buffer]) bottleneck with
   25 ms one-way delays, the setup of A6, A10 and the Section IV-B
   check. Cwnd samples taken in congestion avoidance are segmented into
   ascents by loss events; the longest one is kept. *)
let lone_tcp ~variant ~seed ~buffer ~duration =
  let module Engine = Ebrc_sim.Engine in
  let module Link = Ebrc_net.Link in
  let module QD = Ebrc_net.Queue_discipline in
  let module LE = Ebrc_net.Loss_events in
  let module TS = Tcp_sender in
  let module TR = Ebrc_tcp.Tcp_receiver in
  let module Trace = Ebrc_sim.Trace in
  let engine = Engine.create () in
  let rng = Prng.create ~seed in
  let queue = QD.create ~service_rate:1250.0 ~capacity:buffer QD.Drop_tail in
  let link = Link.create ~engine ~rate_bps:10e6 ~delay:0.025 ~queue ~rng in
  let sender = TS.create ~variant ~engine ~flow:0 () in
  let receiver = TR.create ~engine ~flow:0 () in
  TS.set_transmit sender (fun pkt -> Link.send link pkt);
  Link.set_deliver link (fun pkt -> TR.on_data receiver pkt);
  TR.set_ack_sink receiver (fun ~acked ~dup ~echo ->
      Engine.schedule_after_unit engine ~delay:0.025 (fun () ->
          TS.on_ack sender ~acked ~dup ~echo));
  let current = ref (Trace.create ()) in
  let best = ref (Trace.create ()) in
  let events = TS.loss_events sender in
  let last_events = ref 0 in
  TS.set_rate_sample_hook sender (fun w ->
      let ev = LE.events events in
      if ev <> !last_events then begin
        last_events := ev;
        if Trace.length !current > Trace.length !best then best := !current;
        current := Trace.create ()
      end;
      if TS.phase sender = TS.Congestion_avoidance then
        Trace.record !current ~time:(Engine.now engine) ~value:w);
  Engine.schedule_unit engine ~at:0.0 (fun () -> TS.start sender);
  ignore (Engine.run ~until:duration engine);
  if Trace.length !current > Trace.length !best then best := !current;
  {
    loss_events = LE.events events;
    loss_event_rate = LE.rate events ~since:0;
    received = TR.received receiver;
    mean_rtt = TS.mean_rtt sender;
    timeouts = TS.timeouts sender;
    fast_retransmits = TS.fast_retransmits sender;
    ascent_samples = Trace.length !best;
    slope_ratio = Trace.growth_linearity !best;
  }

let lone_duration ~quick = if quick then 120.0 else 600.0

let window_growth ~quick ~buffer =
  lone_tcp ~variant:Tcp_sender.Reno ~seed:31 ~buffer
    ~duration:(lone_duration ~quick)

(* A6: the Section-IV-B conjecture — when TCP's window is large (few
   competing flows), its growth over time is sub-linear, which is why
   TCP can fall short of the PFTK formula. We trace cwnd during
   congestion-avoidance ascents of a single TCP flow over a DropTail
   bottleneck and report the second-half/first-half slope ratio of the
   longest ascent (1 = linear, < 1 = concave/sub-linear). *)
let ablation_window_growth ~quick =
  let buffers = if quick then [ 50; 200 ] else [ 25; 50; 100; 200; 400 ] in
  let+ rows =
    tasks
      (fun buffer ->
        let r = window_growth ~quick ~buffer in
        [
          string_of_int buffer;
          string_of_int r.loss_events;
          string_of_int r.ascent_samples;
          cell ~decimals:3 r.slope_ratio;
        ])
      buffers
  in
  [
    Table.add_note
      (table
         ~title:
           "Ablation A6: TCP congestion-avoidance window growth linearity \
            (Section IV-B conjecture)"
         ~header:
           [ "DropTail buffer"; "loss events"; "ascent samples";
             "slope ratio (2nd/1st half)" ]
         rows)
      "ratio < 1 = sub-linear growth at large windows (self-induced queueing \
       delay stretches the RTT), the paper's explanation for TCP falling \
       short of the PFTK formula";
  ]

(* A7: autocovariance structure of the measured loss-event intervals —
   the [Zhang et al.] evidence behind condition (C1): lag-k
   autocorrelations of TFRC's loss intervals on a shared bottleneck are
   small. *)
let ablation_autocovariance ~quick =
  let duration = if quick then 120.0 else 600.0 in
  let cfg =
    {
      Scenario.default_config with
      seed = 88;
      n_tfrc = 4;
      n_tcp = 4;
      duration;
      warmup = duration /. 5.0;
    }
  in
  let+ r = Work.scenario cfg in
  let rows =
    List.filter_map
      (fun (m : Scenario.flow_measure) ->
        let ivs = m.loss_intervals in
        if Array.length ivs < 20 then None
        else
          Some
            (string_of_int m.flow
            :: string_of_int (Array.length ivs)
            :: List.map
                 (fun lag ->
                   cell ~decimals:3 (Descriptive.autocorrelation ivs ~lag))
                 [ 1; 2; 4; 8 ]))
      (Array.to_list r.tfrc)
  in
  [
    Table.add_note
      (table
         ~title:
           "Ablation A7: lag-k autocorrelation of TFRC loss-event intervals \
            (the [18] evidence for (C1))"
         ~header:[ "flow"; "intervals"; "lag 1"; "lag 2"; "lag 4"; "lag 8" ]
         rows)
      "small autocorrelations mean the moving-average estimator is a poor \
       predictor of the next interval — condition (C1) — and Theorem 1 \
       yields conservativeness";
  ]

(* A8: exact quadrature vs Monte Carlo for the iid Prop-1 collapse —
   validates both engines against each other. [exact_vs_mc] is one row:
   (exact, Monte-Carlo) x/f(p) with uniform weights over window [l]. *)
let exact_vs_mc ~cycles ~l =
  let formula = Formula.create ~rtt:1.0 Formula.Pftk_simplified in
  let rng = Prng.create ~seed:770 in
  let process = Loss_process.iid_shifted_exponential rng ~p:0.1 ~cv:0.9 in
  let estimator = Loss_interval.create ~weights:(Weights.uniform l) in
  ( Ebrc_control.Exact.normalized_throughput ~formula ~l ~p:0.1 ~cv:0.9,
    (Basic_control.simulate ~formula ~estimator ~process ~cycles ())
      .Basic_control.normalized )

let ablation_exact_vs_mc ~quick =
  let cycles = if quick then 100_000 else 1_000_000 in
  let+ rows =
    tasks
      (fun l ->
        let exact, mc = exact_vs_mc ~cycles ~l in
        [
          string_of_int l;
          cell ~decimals:4 exact;
          cell ~decimals:4 mc;
          cell ~decimals:4 (abs_float (mc -. exact) /. exact);
        ])
      [ 1; 2; 4; 8; 16 ]
  in
  [
    table
      ~title:
        "Ablation A8: exact Erlang quadrature vs Monte Carlo (basic control, \
         uniform weights, PFTK-simplified, p = 0.1, cv = 0.9)"
      ~header:[ "L"; "x/f(p) exact"; "x/f(p) Monte Carlo"; "rel. error" ]
      rows;
  ]

(* A9: the two-router chain — where do losses happen and does the
   TFRC/TCP comparison survive a second congestion point? *)
let ablation_chain ~quick =
  let duration = if quick then 60.0 else 300.0 in
  let base =
    { Scenario.chain_config with duration; warmup = duration /. 4.0 }
  in
  let fast_hop =
    Option.map
      (fun h -> { h with Scenario.hop_bps = 100e6; cross_fraction = 0.0 })
      base.second_hop
  in
  let+ rows =
    each
      (fun (name, cfg) ->
        let+ r = Work.scenario cfg in
        let hop = Option.get r.Scenario.hop_stats in
        [
          name;
          string_of_int r.queue_drops;
          string_of_int hop.hop_drops;
          cell ~decimals:1 (Scenario.mean_throughput r.tfrc);
          cell ~decimals:1 (Scenario.mean_throughput r.tcp);
          cell ~decimals:5 (Scenario.pooled_loss_rate r.tfrc);
          cell ~decimals:5 (Scenario.pooled_loss_rate r.tcp);
        ])
      [
        ("single bottleneck (fast L2)", { base with second_hop = fast_hop });
        ("dual bottleneck + cross", base);
      ]
  in
  [
    Table.add_note
      (table
         ~title:
           "Ablation A9: two-router chain — single vs dual bottleneck (+30% \
            cross traffic on link 2)"
         ~header:
           [ "setup"; "drops L1"; "drops L2"; "TFRC x (pkt/s)";
             "TCP x (pkt/s)"; "p (TFRC)"; "p' (TCP)" ]
         rows)
      "the paper's lab used the second router purely as a delay element \
       (the first row); the second row shows the loss process becoming a \
       superposition of two congestion points";
  ]

(* A10: TCP variant sensitivity — does the Reno/Tahoe recovery style
   change the loss-event rates and formula obedience that drive the
   paper's sub-conditions 2 and 4? *)
let ablation_tcp_variant ~quick =
  let duration = lone_duration ~quick in
  let run (name, variant) =
    let r = lone_tcp ~variant ~seed:7 ~buffer:60 ~duration in
    let p = r.loss_event_rate in
    let x = float_of_int r.received /. duration in
    let f =
      if p > 0.0 then
        Formula.eval (Formula.create ~rtt:r.mean_rtt Formula.Pftk_standard) p
      else nan
    in
    [
      name;
      cell ~decimals:5 p;
      cell ~decimals:1 x;
      cell ~decimals:3 (x /. f);
      string_of_int r.timeouts;
      string_of_int r.fast_retransmits;
    ]
  in
  let+ rows =
    tasks run
      [ ("Reno/NewReno", Tcp_sender.Reno); ("Tahoe", Tcp_sender.Tahoe) ]
  in
  [
    Table.add_note
      (table
         ~title:
           "Ablation A10: TCP recovery variant alone on a DropTail \
            bottleneck — loss-event rate and formula obedience"
         ~header:
           [ "variant"; "p'"; "x' (pkt/s)"; "x'/f(p',r')"; "timeouts";
             "fast rtx" ]
         rows)
      "the PFTK formula models Reno; Tahoe's slow-start restarts change \
       both p' and the obedience ratio — sub-conditions 2 and 4 are \
       implementation-sensitive, reinforcing the paper's warning";
  ]

(* A11: the paper's "further study" direction — conservativeness as a
   design objective. The advisor picks the smallest estimator window
   meeting a worst-case efficiency target over an operating region. *)
let ablation_design_advisor ~quick:_ =
  Work.task @@ fun () ->
  let module Dz = Ebrc_analysis.Design in
  let formula = Formula.create ~rtt:0.1 Formula.Pftk_standard in
  let rows =
    List.map
      (fun target ->
        cell ~decimals:2 target
        ::
        (match Dz.recommend_window ~formula ~target () with
        | Some r -> [ string_of_int r.Dz.l; cell ~decimals:3 r.Dz.efficiency ]
        | None -> [ "unreachable (l_max)"; "-" ]))
      [ 0.5; 0.7; 0.8; 0.9; 0.95 ]
  in
  [
    Table.add_note
      (table
         ~title:
           "Ablation A11: design advisor — smallest window L meeting a \
            worst-case efficiency target (PFTK-standard, p in {0.01..0.2}, \
            cv = 0.9)"
         ~header:[ "target x/f(p)"; "recommended L"; "achieved worst case" ]
         rows)
      "the conclusion's design alternative, implemented: pick L for a \
       provable conservativeness/efficiency trade-off instead of tuning \
       for TCP-friendliness";
  ]

(* A12: sub-condition 3 under heterogeneous RTTs — the paper only
   observed the r'/r comparison empirically; here we sweep the per-flow
   reverse-delay spread and watch how the RTT ratio and the headline
   friendliness ratio move. *)
let ablation_rtt_heterogeneity ~quick =
  let duration = if quick then 80.0 else 400.0 in
  let jitters = if quick then [ 0.0; 0.3 ] else [ 0.0; 0.1; 0.3; 0.6 ] in
  let+ rows =
    each
      (fun jitter ->
        let+ r =
          Work.scenario
            {
              Scenario.default_config with
              seed = 61;
              n_tfrc = 4;
              n_tcp = 4;
              with_probe = false;
              reverse_jitter = jitter;
              duration;
              warmup = duration /. 4.0;
            }
        in
        let rtt_tfrc = Scenario.mean_rtt r.tfrc
        and rtt_tcp = Scenario.mean_rtt r.tcp in
        [
          cell ~decimals:2 jitter;
          cell ~decimals:1 (1000.0 *. rtt_tfrc);
          cell ~decimals:1 (1000.0 *. rtt_tcp);
          cell ~decimals:3 (rtt_tcp /. rtt_tfrc);
          cell ~decimals:3
            (Scenario.mean_throughput r.tfrc /. Scenario.mean_throughput r.tcp);
        ])
      jitters
  in
  [
    Table.add_note
      (table
         ~title:
           "Ablation A12: per-flow RTT heterogeneity - r'/r and the \
            friendliness ratio vs reverse-delay spread"
         ~header:[ "jitter"; "rtt TFRC (ms)"; "rtt TCP (ms)"; "r'/r"; "x/x'" ]
         rows)
      "the paper observed RTT deviations but found them not to dominate \
       friendliness; the spread here perturbs r'/r by a few percent while \
       the throughput ratio moves much less than the loss-rate effects of \
       F12-F15";
  ]

(* A13: loss-process family sensitivity — the same basic control and
   operating point driven by different interval laws; the covariance
   column explains each outcome through Theorem 1 / Claim 1. *)
let ablation_loss_families ~quick =
  let cycles = if quick then 50_000 else 400_000 in
  let formula = Formula.create ~rtt:1.0 Formula.Pftk_simplified in
  let p = 0.05 in
  let processes =
    [
      ("iid shifted-exp cv=0.9",
       fun seed ->
         Loss_process.iid_shifted_exponential (Prng.create ~seed) ~p ~cv:0.9);
      ("iid exponential",
       fun seed -> Loss_process.iid_exponential (Prng.create ~seed) ~p);
      ("iid pareto shape=2.2",
       fun seed -> Loss_process.iid_pareto (Prng.create ~seed) ~p ~shape:2.2);
      ("gilbert 5/35 run=15",
       fun seed ->
         Loss_process.gilbert (Prng.create ~seed) ~mean_short:5.0
           ~mean_long:35.0 ~run_length:15.0);
      ("batch bp=0.3 bs=3",
       fun seed ->
         Loss_process.batch (Prng.create ~seed) ~p ~batch_p:0.3 ~batch_size:3);
      ("ar1 rho=+0.8",
       fun seed ->
         Loss_process.ar1 (Prng.create ~seed) ~p ~rho:0.8 ~sigma:0.4);
    ]
  in
  let+ rows =
    tasks
      (fun (name, mk) ->
        let process = mk 97 in
        let estimator = Loss_interval.of_tfrc ~l:8 in
        let r =
          Basic_control.simulate ~formula ~estimator ~process ~cycles ()
        in
        [
          name;
          cell ~decimals:4 r.Basic_control.p_observed;
          cell ~decimals:3 r.Basic_control.normalized;
          cell ~decimals:4
            (r.Basic_control.cov_theta_thetahat
            *. r.Basic_control.p_observed *. r.Basic_control.p_observed);
          cell ~decimals:3 r.Basic_control.cv_thetahat;
        ])
      processes
  in
  [
    Table.add_note
      (table
         ~title:
           "Ablation A13: loss-process families under the basic control \
            (PFTK-simplified, L=8, target p=0.05)"
         ~header:
           [ "process"; "p observed"; "x/f(p)"; "cov[th,th^]p^2"; "cv[th^]" ]
         rows)
      "iid families (cov ~ 0): conservative per Theorem 1; positively \
       correlated families (gilbert, ar1) escape the theorem's hypotheses \
       but PFTK's convexity penalty keeps them below f(p) here (Claim 1: \
       high estimator variability)";
  ]

(* ------------------------------------------------------------------ *)
(* Robust presets: the paper's qualitative claims when the control     *)
(* loop degrades (the spirit of its lab/Internet experiments).         *)
(* ------------------------------------------------------------------ *)

(* One row of the faulted-vs-clean comparison the robust figures share:
   TFRC throughput, pooled loss-event rate, conservativeness x/f(p,r),
   nofeedback halvings, and the injector counts. *)
let robust_row label (cfg : Scenario.config) (r : Scenario.result) =
  let formula =
    Formula.create ~rtt:(Scenario.base_rtt cfg) cfg.tfrc_formula_kind
  in
  let p = Scenario.pooled_loss_rate r.tfrc in
  let x = Scenario.mean_throughput r.tfrc in
  let rtt = Scenario.mean_rtt r.tfrc in
  let norm =
    if p <= 0.0 then nan
    else x /. Formula.eval (Formula.with_rtt formula ~rtt) p
  in
  let fs i = string_of_int i in
  let stat f = match r.fault_stats with None -> "-" | Some s -> fs (f s) in
  [
    label; cell ~decimals:1 x; cell ~decimals:4 p; cell ~decimals:3 norm;
    fs r.tfrc_halvings;
    stat (fun s -> s.Ebrc_net.Fault.transitions);
    stat (fun s -> s.Ebrc_net.Fault.down_drops + s.Ebrc_net.Fault.parked);
    stat (fun s -> s.Ebrc_net.Fault.blackout_drops);
  ]

let robust_compare ~title ~note cfg =
  let+ faulted, clean =
    Work.both (Work.scenario cfg)
      (Work.scenario { cfg with Scenario.faults = None })
  in
  [
    Table.add_note
      (table ~title
         ~header:
           [ "variant"; "tfrc x (pps)"; "p"; "x/f(p,r)"; "halvings"; "flaps";
             "down pkts"; "blackout drops" ]
         [
           robust_row "faulted" cfg faulted;
           robust_row "fault-free" cfg clean;
         ])
      note;
  ]

let robust_blackout ~quick:_ =
  robust_compare Scenario.robust_blackout_config
    ~title:
      "Robust: recurring one-way feedback blackouts (15 s every 50 s)"
    ~note:
      "RFC 3448 safety valve: with feedback gone for >> 4 RTTs the \
       nofeedback timer halves the rate repeatedly (halvings > 0, vs 0 \
       fault-free); TCP acks are not blacked out, isolating the TFRC \
       mechanism"

let robust_flaps ~quick:_ =
  robust_compare Scenario.robust_flaps_config
    ~title:"Robust: random link up/down flaps (outages ~1.5 s, up ~8 s)"
    ~note:
      "through flap-driven loss bursts TFRC tracks the degraded loss \
       process and stays at or below the formula rate (x/f(p,r) <= ~1, \
       the paper's conservativeness under stress)"

let robust_chaos ~quick:_ =
  let cfg = Scenario.robust_chaos_config in
  (* Determinism demonstrated the hard way: two full runs as tasks
     (bypassing the cache and the batch's dedup, either of which would
     make the equality trivial), compared on their exact serialized
     bytes. *)
  let fresh = Work.task (fun () -> Scenario.run cfg) in
  let+ r1, r2 = Work.both fresh fresh in
  let identical =
    String.equal
      (Result_cache.serialize_result r1)
      (Result_cache.serialize_result r2)
  in
  let stat (name, f) =
    [ name;
      (match r1.Scenario.fault_stats with
      | None -> "-"
      | Some s -> string_of_int (f s)) ]
  in
  let module F = Ebrc_net.Fault in
  let t =
    table
      ~title:
        "Robust: chaos episodes (flaps+park, delay spikes, reordering, \
         duplication, blackout)"
      ~header:[ "metric"; "value" ]
      (List.map stat
         [
           ("flap transitions", fun s -> s.F.transitions);
           ("packets parked", fun s -> s.F.parked);
           ("delay-spiked", fun s -> s.F.spiked);
           ("reordered", fun s -> s.F.reordered);
           ("duplicated", fun s -> s.F.duplicated);
           ("blackout drops", fun s -> s.F.blackout_drops);
         ]
      @ [
          [ "nofeedback halvings"; string_of_int r1.tfrc_halvings ];
          [ "rerun bit-identical"; (if identical then "yes" else "NO") ];
        ])
  in
  [ Table.add_note t
      "every fault draw comes from Prng.stream of the scenario seed, so \
       the schedule is bit-reproducible: two fresh runs serialize to the \
       same bytes" ]

(* ------------------------------------------------------------------ *)
(* Hybrid packet/fluid engine: validation (h1) and scale (h2).         *)
(* ------------------------------------------------------------------ *)

(* h1: the hybrid validation gate. A small background population is
   simulated twice — once packet-exact (n extra TCP flows) and once as
   a fluid aggregate of the same n flows — and the TFRC foreground's
   loss-event rate and normalized throughput are compared leg against
   leg. Rough agreement here is what licenses replacing 10^4..10^6
   packet flows with the ODE in h2, where a packet-exact leg no longer
   exists. (The fluid is a mean-field model, so small n is its worst
   case; the CI tolerance in test_fluid/test_exp is calibrated
   accordingly and this table is the human-readable view.) *)
let hybrid_agreement ~quick =
  let dur = if quick then 120.0 else 300.0 in
  let base =
    {
      Scenario.default_config with
      Scenario.with_probe = false;
      duration = dur;
      warmup = dur /. 4.0;
    }
  in
  let formula =
    Formula.create ~rtt:(Scenario.base_rtt base) base.Scenario.tfrc_formula_kind
  in
  let measure (r : Scenario.result) =
    let p = Scenario.pooled_loss_rate r.Scenario.tfrc in
    let x = Scenario.mean_throughput r.Scenario.tfrc in
    let rtt = Scenario.mean_rtt r.Scenario.tfrc in
    let norm =
      if p <= 0.0 then nan
      else x /. Formula.eval (Formula.with_rtt formula ~rtt) p
    in
    (p, norm)
  in
  let+ rows =
    each
      (fun n ->
        let+ pkt, fl =
          Work.both
            (Work.scenario
               { base with Scenario.n_tcp = base.Scenario.n_tcp + n })
            (Work.scenario
               {
                 base with
                 Scenario.background =
                   Some (Scenario.default_background ~flows:n);
               })
        in
        let p_pkt, x_pkt = measure pkt and p_fl, x_fl = measure fl in
        [
          string_of_int n;
          cell ~decimals:4 p_pkt; cell ~decimals:4 p_fl;
          cell ~decimals:3 x_pkt; cell ~decimals:3 x_fl;
          cell ~decimals:3 (p_fl /. p_pkt);
          cell ~decimals:3 (x_fl /. x_pkt);
        ])
      (if quick then [ 4; 8 ] else [ 4; 8; 16 ])
  in
  let t =
    table
      ~title:
        "Hybrid validation: n background flows, packet-exact vs fluid \
         aggregate"
      ~header:
        [ "bg flows"; "pkt p"; "fluid p"; "pkt x/f"; "fluid x/f";
          "p ratio"; "x/f ratio" ]
      rows
  in
  let note =
    "both legs share seed, queue and foreground; only the background's \
     representation changes (packets vs one ODE). Ratios near 1 mean \
     the fluid is a faithful stand-in for the congestion the packet \
     background would have caused"
  in
  [ Table.add_note t note ]

(* h2: fluid scale sweep — the many-sources regime the packet engine
   cannot reach. The background aggregates 10^4..10^6 AIMD flows into
   one 2-state ODE while the bottleneck scales with N (the paper's
   many-sources normalization: per-flow share held constant, here
   ~70 pkt/s so the RED ramp pins the fixed point at a moderate drop
   rate). The simulated fluid endpoint is compared against its analytic
   equilibrium, and the ODE-cost columns show why this scales: stepper
   work is independent of N. *)
let hybrid_scale ~quick =
  let dur = if quick then 60.0 else 180.0 in
  let base n =
    {
      Scenario.default_config with
      Scenario.with_probe = false;
      (* ~70 pkt/s x 8000 bit packets per background flow. *)
      bottleneck_bps = 5.6e5 *. float_of_int n;
      duration = dur;
      warmup = dur /. 3.0;
    }
  in
  let ns =
    if quick then [ 10_000; 100_000 ] else [ 10_000; 100_000; 1_000_000 ]
  in
  let point n =
    let bg = Scenario.default_background ~flows:n in
    let cfg = { (base n) with Scenario.background = Some bg } in
    let+ r = Work.scenario cfg in
    let x = cell ~decimals:1 (Scenario.mean_throughput r.Scenario.tfrc) in
    match r.Scenario.fluid_stats with
    | None -> [ string_of_int n; "-"; "-"; "-"; "-"; x; "-"; "-" ]
    | Some s ->
        let eq = Ebrc_net.Fluid.equilibrium (Scenario.fluid_config cfg bg) in
        [
          string_of_int n;
          cell ~decimals:3 s.Ebrc_net.Fluid.w;
          cell ~decimals:3 eq.Ebrc_net.Fluid.eq_w;
          cell ~decimals:4 s.Ebrc_net.Fluid.mean_drop;
          cell ~decimals:4 eq.Ebrc_net.Fluid.eq_p;
          x;
          string_of_int s.Ebrc_net.Fluid.ode.Ebrc_numerics.Ode.accepted;
          string_of_int s.Ebrc_net.Fluid.advances;
        ]
  in
  let+ rows = each point ns in
  let t =
    table ~title:"Hybrid scale: N-flow fluid background vs analytic equilibrium"
      ~header:
        [ "N"; "sim w"; "eq w"; "sim drop"; "eq p"; "tfrc x (pps)";
          "ode steps"; "syncs" ]
      rows
  in
  [ Table.add_note t
      "bottleneck scales with N (constant per-flow share), so the fixed \
       point is N-invariant while a packet-level background would cost \
       10^4..10^6 more events; mean_drop is a whole-run time average so \
       it can sit off the endpoint equilibrium while the transient \
       decays. The RED ramp couples both classes: the packet foreground \
       is dropped on the same avg-occupancy ramp the fluid solves" ]

(* ------------------------------------------------------------------ *)
(* Registry.                                                           *)
(* ------------------------------------------------------------------ *)

type runner = quick:bool -> Table.t list Work.t

let registry : (string * string * runner) list =
  [
    ("1", "function shapes f(1/x), 1/f(1/x)", fig1);
    ("2", "convex closure of PFTK-standard g; ratio r", fig2);
    ("3", "basic control: normalized throughput vs p", fig3);
    ("4", "basic control: normalized throughput vs cv", fig4);
    ("5", "TFRC over RED bottleneck: normalization & covariance", fig5);
    ("6", "audio source over Bernoulli dropper (Claim 2)", fig6);
    ("7", "loss-event rates TFRC/TCP/Poisson vs N (Claim 3)", fig7);
    ("8", "TFRC/TCP throughput ratio vs N", fig8);
    ("9", "TCP vs its formula", fig9);
    ("10", "normalized covariance per path", fig10);
    ("11", "Internet paths: friendliness ratio", fig11);
    ("12", "INRIA breakdown", fig12);
    ("13", "KTH breakdown", fig13);
    ("14", "UMASS breakdown", fig14);
    ("15", "UMELB breakdown", fig15);
    ("16", "lab friendliness ratio", fig16);
    ("17", "p'/p over DropTail buffer (Claim 4)", fig17);
    ("18", "lab DropTail-100 breakdown", fig18);
    ("19", "lab RED breakdown", fig19);
    ("t1", "Table I substitute: path profiles", table_one);
    ("c3", "Claim 3 analytic: many-sources limit", table_c3);
    ("c4", "Claim 4 closed form: p'/p = 4/(1+beta)^2", table_c4);
    ("a1", "ablation: TFRC vs uniform estimator weights", ablation_weights);
    ("a2", "ablation: Eq.12 -> Eq.13 timescale convergence", ablation_eq12);
    ("a3", "ablation: packet-mode vs byte-mode dropper (Claim 2)",
     ablation_dropper_mode);
    ("a4", "ablation: AIMD + EBRC competing on a fluid link",
     ablation_competition);
    ("a5", "ablation: Figure 3 under the comprehensive control",
     ablation_comprehensive_fig3);
    ("a6", "ablation: TCP window growth linearity (Section IV-B)",
     ablation_window_growth);
    ("a7", "ablation: autocorrelation of loss intervals ((C1) evidence)",
     ablation_autocovariance);
    ("a8", "ablation: exact quadrature vs Monte Carlo", ablation_exact_vs_mc);
    ("a9", "ablation: two-router chain (dual bottleneck)", ablation_chain);
    ("a10", "ablation: TCP recovery variant (Reno vs Tahoe)",
     ablation_tcp_variant);
    ("a11", "ablation: design advisor (conservativeness as objective)",
     ablation_design_advisor);
    ("a12", "ablation: RTT heterogeneity (sub-condition 3)",
     ablation_rtt_heterogeneity);
    ("a13", "ablation: loss-process family sensitivity",
     ablation_loss_families);
    ("r1", "robust: feedback blackouts drive nofeedback halvings",
     robust_blackout);
    ("r2", "robust: link flaps; TFRC stays conservative vs f",
     robust_flaps);
    ("r3", "robust: chaos episodes, bit-reproducible schedule",
     robust_chaos);
    ("h1", "hybrid: packet-exact vs fluid background agreement",
     hybrid_agreement);
    ("h2", "hybrid: fluid background scale sweep (10^4..10^6 flows)",
     hybrid_scale);
  ]

let find id =
  List.find_opt (fun (fid, _, _) -> fid = id) registry
  |> Option.map (fun (_, _, r) -> r)

let ids () = List.map (fun (id, _, _) -> id) registry
let describe () = List.map (fun (id, d, _) -> (id, d)) registry

(* --------------------------- running ----------------------------- *)

type failure = {
  failed_id : string;
  message : string;
  exn : exn;
  backtrace : string;
}

let describe_exn = function
  | Ebrc_sim.Engine.Budget_exceeded { kind; budget; at; events } ->
      let what, unit_ =
        match kind with
        | Ebrc_sim.Engine.Sim_time -> ("sim-time", "s of simulated time")
        | Ebrc_sim.Engine.Wall_clock -> ("wall-clock", "s elapsed")
      in
      Printf.sprintf
        "%s watchdog tripped: budget %g s, at %g %s after %d events"
        what budget at unit_ events
  | e -> Printexc.to_string e

(* A failed leaf names the figures that declared it, its kind and, for
   a scenario, its cache digest. *)
let failure_of id (e : Work.error) =
  {
    failed_id = id;
    message =
      Printf.sprintf "%s of figure%s %s failed: %s" e.leaf
        (if List.length e.owners > 1 then "s" else "")
        (String.concat " " e.owners) (describe_exn e.exn);
    exn = e.exn;
    backtrace = Printexc.raw_backtrace_to_string e.backtrace;
  }

(* The one sweep path: every entry's work runs as one batch. The batch
   gets one span; each figure still streams start and done/failed. *)
let run_batch ?jobs ~quick entries =
  List.iter
    (fun (id, _) -> Ebrc_telemetry.Stream.figure_event ~id ~phase:"start" ())
    entries;
  let results =
    Tm.with_span ~cat:"figure" "figures:batch" (fun () ->
        Work.run ?jobs
          (List.map
             (fun (id, (runner : runner)) -> (id, runner ~quick))
             entries))
  in
  List.map
    (fun (id, r) ->
      match r with
      | Ok tables ->
          Atomic.incr c_figures_run;
          ignore (Atomic.fetch_and_add c_tables (List.length tables));
          Ebrc_telemetry.Stream.figure_event ~id ~phase:"done"
            ~tables:(List.length tables) ();
          (id, Ok tables)
      | Error e ->
          Ebrc_telemetry.Stream.figure_event ~id ~phase:"failed" ();
          Ebrc_telemetry.Flight.on_exn ~reason:("figure:" ^ id) e.Work.exn;
          (id, Error (failure_of id e)))
    results

let unknown id =
  let message =
    Printf.sprintf "unknown figure id %S; valid ids: %s" id
      (String.concat " " (ids ()))
  in
  { failed_id = id; message; exn = Invalid_argument message; backtrace = "" }

let run ?jobs ~quick ids =
  let known =
    List.filter_map (fun id -> Option.map (fun r -> (id, r)) (find id)) ids
  in
  let results = run_batch ?jobs ~quick known in
  List.map
    (fun id ->
      match List.assoc_opt id results with
      | Some r -> (id, r)
      | None -> (id, Error (unknown id)))
    ids

(* Raise the first failure's original exception, as a direct run
   would have. *)
let tables_exn results =
  List.concat_map
    (function _, Ok tables -> tables | _, Error f -> raise f.exn)
    results

let run_one ?jobs ~quick id = tables_exn (run ?jobs ~quick [ id ])

let run_all ?jobs ~quick () = tables_exn (run ?jobs ~quick (ids ()))
