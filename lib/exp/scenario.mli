(** The dumbbell scenario standing in for the paper's ns-2 and lab
    setups: TFRC, TCP and optional Poisson-probe flows sharing one
    bottleneck; fixed-delay reverse path; counter-snapshot measurement
    over [warmup, duration]. An optional second hop turns it into the
    paper's two-router lab topology. *)

type queue_config =
  | Drop_tail of { capacity : int }
  | Red_auto of { capacity : int }
      (** Thresholds derived from the BDP as in the paper's ns-2 runs;
          capacity 0 means 2.5 × BDP. *)
  | Red_manual of {
      capacity : int;
      params : Ebrc_net.Queue_discipline.red_params;
    }

type background = {
  bg_flows : int;
      (** Fluid background aggregate: the number of AIMD flows the ODE
          stands in for (10⁴–10⁶ is the intended regime). *)
  bg_share_cap : float;
      (** Max capacity fraction the fluid may hold (service floor for
          the packet-level foreground). *)
  bg_resolution : float;  (** Fluid sync quantum, seconds. *)
}

val default_background : flows:int -> background
(** share_cap 0.9, resolution 1 ms. *)

type hop = {
  hop_bps : float;
  hop_delay : float;  (** Propagation of the hop, seconds. *)
  hop_capacity : int;  (** DropTail queue capacity, packets. *)
  cross_fraction : float;
      (** Poisson cross-traffic load as a fraction of [hop_bps], in
          [\[0, 1)]; 0 means no cross traffic. *)
}
(** A second DropTail link after the bottleneck (router 2). Every
    foreground flow crosses both links; cross traffic joins at router
    2 and leaves after the hop. *)

type config = {
  seed : int;
  bottleneck_bps : float;
  one_way_delay : float;
  queue : queue_config;
  packet_size : int;
  n_tfrc : int;
  n_tcp : int;
  with_probe : bool;
  tfrc_l : int;
  tfrc_formula_kind : Ebrc_formulas.Formula.kind;
  tfrc_comprehensive : bool;
  tfrc_conform_to_analysis : bool;
  reverse_jitter : float;
      (** Per-flow reverse-delay spread (factor in 1 ± jitter); breaks
          DropTail phase effects and, at larger values, exercises the
          r′/r sub-condition under heterogeneous RTTs. *)
  duration : float;
  warmup : float;
  faults : Ebrc_net.Fault.config option;
      (** Deterministic fault injection (link flaps, delay spikes,
          reordering, duplication on the forward path; one-way
          blackouts on the TFRC feedback path). The injector draws
          from [Prng.stream ~root:seed], so it never perturbs the
          master sequence: a run with [faults = None] is bit-identical
          to a fault-free run. *)
  background : background option;
      (** Fluid background aggregate sharing the bottleneck (the hybrid
          packet/fluid engine). Like [faults], a run with [None] is
          bit-identical to a packet-only run: nothing is attached to
          the link or the engine. *)
  second_hop : hop option;
      (** The two-router chain: the bottleneck forwards into this hop,
          and the receivers sit behind it. The base RTT and the
          reverse delays use the path delay [one_way_delay +.
          hop_delay]; faults still hit the bottleneck ingress. The hop
          takes the master split after the bottleneck's and the cross
          source the one after the probe's, so [None] leaves every
          other run bit-identical. [run] raises [Invalid_argument] when
          [cross_fraction] is outside [\[0, 1)]. *)
}

val default_config : config
(** The paper's ns-2 baseline: 15 Mb/s RED bottleneck, ~50 ms RTT,
    PFTK-standard, L = 8, 300 s runs. *)

type flow_measure = {
  flow : int;
  throughput_pps : float;
  loss_event_rate : float;
  mean_rtt : float;
  loss_intervals : float array;
  estimate_pairs : (float * float) array;  (** TFRC only: (θ̂ₙ, θₙ). *)
}

type hop_stats = {
  hop_drops : int;  (** Drops at the hop's queue over the window. *)
  hop_utilization : float;  (** Hop throughput over [hop_bps]. *)
}

type result = {
  tfrc : flow_measure array;
  tcp : flow_measure array;
  probe : flow_measure option;
  link_utilization : float;
  queue_drops : int;
  sim_time : float;
  tfrc_halvings : int;
      (** RFC 3448 nofeedback-timer halvings summed over TFRC senders
          (whole run, not just the measurement window). *)
  fault_stats : Ebrc_net.Fault.stats option;
      (** Injector counts; [None] when no injector was active. *)
  fluid_stats : Ebrc_net.Fluid.stats option;
      (** Fluid background state at the end of the run; [None] when no
          fluid was attached. *)
  hop_stats : hop_stats option;
      (** The second hop's measurements; [None] without a hop.
          [link_utilization] and [queue_drops] stay the bottleneck's. *)
}

val run : config -> result
(** When live streaming with sim-time sampling is active
    ({!Ebrc_telemetry.Stream.sim_active}), [run] also emits a
    [run_start]/[delta]/[run_end] record sequence keyed by
    {!stream_key}: an engine sampler fires at sim-time boundaries and
    streams this run's domain-local telemetry deltas. The sampler
    neither schedules events nor draws randomness, so the simulation
    result is bit-identical with streaming on or off. *)

val stream_key : config -> string
(** The key of this run's stream records: the hex MD5 of the config's
    marshalled bytes. Configs that differ in any field get different
    keys, and equal configs the same key, independent of pool
    scheduling. The bytes are the compiler's, so a key is stable
    within one build, not across builds. *)

val base_rtt : config -> float
(** Twice the forward path's propagation delay, both hops included. *)

val bdp_packets : config -> float

val fluid_config : config -> background -> Ebrc_net.Fluid.config
(** The fluid configuration [run] attaches for this background: drop
    profile mirroring the packet queue, capacity and qmax shared with
    it. Lets callers query [Fluid.equilibrium] for exactly the
    aggregate a run used. *)

val mean_throughput : flow_measure array -> float
val mean_loss_rate : flow_measure array -> float
val mean_rtt : flow_measure array -> float

val pooled_pairs : flow_measure array -> (float * float) array
(** Concatenated (θ̂ₙ, θₙ) pairs across flows. *)

val pooled_loss_rate : flow_measure array -> float
(** Loss-event rate over the union of all flows' completed intervals —
    stabler than averaging per-flow rates. *)

(** {2 Robust presets}

    Stress configs for the paper's qualitative claims when the control
    loop degrades (the spirit of its lab/Internet experiments). *)

val robust_blackout_config : config
(** Recurring one-way feedback blackouts; the nofeedback timer must
    fire (> 0 halvings) while TCP, whose acks are not blacked out,
    keeps flowing. *)

val robust_flaps_config : config
(** Random link up/down flaps (drop mode); TFRC stays conservative
    vs. the formula rate through the loss bursts. *)

val robust_chaos_config : config
(** Flaps (park mode) + delay spikes + reordering + duplication + a
    one-shot blackout — the determinism workout. *)

val chain_config : config
(** The two-router chain of ablation A9: 2 TFRC + 2 TCP through a
    10 Mb/s DropTail-60 bottleneck (10 ms), then a 10 Mb/s
    DropTail-60 hop (20 ms) carrying 30% Poisson cross traffic; no
    probe, seed 42, 120 s runs with a 30 s warmup. *)
