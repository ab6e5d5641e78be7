(** Equation-based rate control: a reproduction of Vojnović & Le Boudec,
    "On the Long-Run Behavior of Equation-Based Rate Control"
    (SIGCOMM 2002 / IC tech report IC/2003/70).

    This umbrella module re-exports the public API. The layering is:

    - Foundations: {!Stats}, {!Prng}, {!Dist},
      {!Convexity}, {!Roots}, {!Quadrature}, {!Ode}, and {!Pool} (the
      domain pool behind every [?jobs] parameter).
    - The paper's analytical objects: {!Formula} (SQRT / PFTK throughput
      formulas), {!Conditions} (the (F1)/(F2)/(F2c) convexity
      conditions), {!Weights} and {!Loss_interval} (the θ̂ estimator),
      {!Loss_process} (driving loss processes), {!Basic_control} and
      {!Comprehensive_control} (the two control laws and their Palm
      throughput analysis), {!Theorems} (Theorems 1–2 as predicates).
    - The packet-level substrate standing in for ns-2 and the testbeds:
      {!Engine}, {!Packet}, {!Queue_discipline}, {!Link},
      {!Loss_module}, {!Loss_events} (the paper's loss-event rule behind
      p, p′ and p″), {!Gap_sink}, {!Tcp_sender},
      {!Tcp_receiver}, {!Tfrc_sender}, {!Tfrc_receiver},
      {!Loss_history}, {!Probe_source}, {!Audio_source}, {!Flock}.
    - The paper's evaluation: {!Breakdown} (the four TCP-friendliness
      sub-conditions), {!Few_flows} (Claim 4), {!Many_sources}
      (Claim 3), {!Scenario} / {!Audio_scenario} / {!Paths} (experiment
      setups), {!Figures} (one runner per paper figure, declaring its
      {!Work}), {!Table} (result rendering). *)

(* Foundations *)
module Descriptive = Ebrc_stats.Descriptive
module Welford = Ebrc_stats.Welford
module Cov_acc = Ebrc_stats.Cov_acc
module Resample = Ebrc_stats.Resample
module Student_t = Ebrc_stats.Student_t
module Prng = Ebrc_rng.Prng
module Dist = Ebrc_rng.Dist
module Pool = Ebrc_parallel.Pool
module Telemetry = Ebrc_telemetry.Telemetry
module Telemetry_export = Ebrc_telemetry.Export
module Telemetry_stream = Ebrc_telemetry.Stream
module Telemetry_flight = Ebrc_telemetry.Flight
module Convexity = Ebrc_numerics.Convexity
module Roots = Ebrc_numerics.Roots
module Quadrature = Ebrc_numerics.Quadrature
module Ode = Ebrc_numerics.Ode

(* Analytical core *)
module Formula = Ebrc_formulas.Formula
module Conditions = Ebrc_formulas.Conditions
module Weights = Ebrc_estimator.Weights
module Loss_interval = Ebrc_estimator.Loss_interval
module Loss_process = Ebrc_lossproc.Loss_process
module Basic_control = Ebrc_control.Basic_control
module Comprehensive_control = Ebrc_control.Comprehensive_control
module Theorems = Ebrc_control.Theorems
module Exact = Ebrc_control.Exact

(* Packet-level substrate *)
module Engine = Ebrc_sim.Engine
module Event_queue = Ebrc_sim.Event_queue
module Timing_wheel = Ebrc_sim.Timing_wheel
module Trace = Ebrc_sim.Trace
module Packet = Ebrc_net.Packet
module Queue_discipline = Ebrc_net.Queue_discipline
module Link = Ebrc_net.Link
module Loss_module = Ebrc_net.Loss_module
module Fluid = Ebrc_net.Fluid
module Loss_events = Ebrc_net.Loss_events
module Gap_sink = Ebrc_net.Gap_sink
module Fault = Ebrc_net.Fault
module Seq_set = Ebrc_tcp.Seq_set
module Tcp_sender = Ebrc_tcp.Tcp_sender
module Tcp_receiver = Ebrc_tcp.Tcp_receiver
module Loss_history = Ebrc_tfrc.Loss_history
module Tfrc_sender = Ebrc_tfrc.Tfrc_sender
module Tfrc_receiver = Ebrc_tfrc.Tfrc_receiver
module Probe_source = Ebrc_sources.Probe_source
module Audio_source = Ebrc_sources.Audio_source
module Flock = Ebrc_sources.Flock
module Flow_pool = Ebrc_sources.Flow_pool

(* Evaluation *)
module Breakdown = Ebrc_analysis.Breakdown
module Few_flows = Ebrc_analysis.Few_flows
module Many_sources = Ebrc_analysis.Many_sources
module Design = Ebrc_analysis.Design
module Scenario = Ebrc_exp.Scenario
module Result_cache = Ebrc_exp.Result_cache
module Codec = Ebrc_exp.Codec
module Audio_scenario = Ebrc_exp.Audio_scenario
module Paths = Ebrc_exp.Paths
module Work = Ebrc_exp.Work
module Figures = Ebrc_exp.Figures
module Table = Ebrc_exp.Table
module Report = Ebrc_exp.Report
module Validate = Ebrc_exp.Validate

let version = "1.0.0"
