(* The dumbbell scenario that stands in for the paper's ns-2 and lab
   setups: N TFRC senders, M TCP senders and optional non-adaptive
   probes share one bottleneck link; the reverse path is a fixed delay
   (no reverse congestion, as in the paper's topologies).

     senders --> [ queue | bottleneck ] --prop--> receivers
        ^                                             |
        +---------------- fixed reverse delay --------+

   Per-flow reverse-delay jitter (a few percent, fixed per flow) breaks
   the phase effects DropTail is prone to, mirroring the heterogeneous
   access links of the testbed. Measurements are taken between
   [warmup] and [duration] via counter snapshots.

   An optional second hop generalises this to the paper's two-router
   lab topology: a DropTail link after the bottleneck, with Poisson
   cross-traffic joining at router 2 and leaving after the hop.

     senders --> [ q1 | link ] --> [ q2 | hop ] --> receivers
                                      ^
                        cross-traffic (router 2)

   With the hop fast and no cross traffic the second router purely
   adds delay (the paper's setup); with comparable rates plus cross
   traffic, end-to-end loss events superpose two congestion points. *)

module Engine = Ebrc_sim.Engine
module Prng = Ebrc_rng.Prng
module Packet = Ebrc_net.Packet
module Link = Ebrc_net.Link
module Queue_discipline = Ebrc_net.Queue_discipline
module Gap_sink = Ebrc_net.Gap_sink
module Loss_events = Ebrc_net.Loss_events
module Fault = Ebrc_net.Fault
module Tcp_sender = Ebrc_tcp.Tcp_sender
module Tcp_receiver = Ebrc_tcp.Tcp_receiver
module Tfrc_sender = Ebrc_tfrc.Tfrc_sender
module Tfrc_receiver = Ebrc_tfrc.Tfrc_receiver
module Loss_history = Ebrc_tfrc.Loss_history
module Probe_source = Ebrc_sources.Probe_source
module Fluid = Ebrc_net.Fluid
module Formula = Ebrc_formulas.Formula
module Stream = Ebrc_telemetry.Stream

type queue_config =
  | Drop_tail of { capacity : int }
  | Red_auto of { capacity : int }  (* thresholds from the BDP, as in ns-2 *)
  | Red_manual of { capacity : int; params : Queue_discipline.red_params }

type background = {
  bg_flows : int;        (* AIMD flows the fluid aggregate stands in for *)
  bg_share_cap : float;  (* max capacity fraction the fluid may hold *)
  bg_resolution : float; (* fluid sync quantum, seconds *)
}

let default_background ~flows =
  { bg_flows = flows; bg_share_cap = 0.9; bg_resolution = 1e-3 }

type hop = {
  hop_bps : float;
  hop_delay : float;      (* propagation of the hop, seconds *)
  hop_capacity : int;     (* DropTail capacity, packets *)
  cross_fraction : float; (* Poisson cross load as a fraction of
                             hop_bps, in [0, 1) *)
}

type config = {
  seed : int;
  bottleneck_bps : float;
  one_way_delay : float;          (* propagation each way, seconds *)
  queue : queue_config;
  packet_size : int;              (* bytes, data packets *)
  n_tfrc : int;
  n_tcp : int;
  with_probe : bool;              (* one Poisson probe at ~1% of capacity *)
  tfrc_l : int;                   (* TFRC history window *)
  tfrc_formula_kind : Formula.kind;
  tfrc_comprehensive : bool;
  tfrc_conform_to_analysis : bool;
  reverse_jitter : float;         (* per-flow reverse-delay spread:
                                     factor drawn from 1 +/- jitter *)
  duration : float;               (* simulated seconds *)
  warmup : float;                 (* measurement start *)
  faults : Fault.config option;   (* deterministic fault injection on the
                                     forward path + TFRC feedback path *)
  background : background option; (* fluid background aggregate sharing
                                     the bottleneck; like [faults], a run
                                     with [None] is bit-identical to a
                                     packet-only run *)
  second_hop : hop option;        (* a second DropTail link after the
                                     bottleneck, with cross traffic *)
}

let default_config =
  {
    seed = 42;
    bottleneck_bps = 15e6;
    one_way_delay = 0.025;
    queue = Red_auto { capacity = 0 } (* 0 = derive from BDP *);
    packet_size = 1000;
    n_tfrc = 4;
    n_tcp = 4;
    with_probe = true;
    tfrc_l = 8;
    tfrc_formula_kind = Formula.Pftk_standard;
    tfrc_comprehensive = true;
    tfrc_conform_to_analysis = false;
    reverse_jitter = 0.1;
    duration = 300.0;
    warmup = 50.0;
    faults = None;
    background = None;
    second_hop = None;
  }

type flow_measure = {
  flow : int;
  throughput_pps : float;        (* over the measurement window *)
  loss_event_rate : float;       (* completed intervals in the window *)
  mean_rtt : float;
  loss_intervals : float array;  (* completed intervals in the window *)
  estimate_pairs : (float * float) array;  (* TFRC only: (thetahat, theta) *)
}

type hop_stats = { hop_drops : int; hop_utilization : float }

type result = {
  tfrc : flow_measure array;
  tcp : flow_measure array;
  probe : flow_measure option;
  link_utilization : float;
  queue_drops : int;
  sim_time : float;
  tfrc_halvings : int;           (* nofeedback-timer halvings, all senders *)
  fault_stats : Fault.stats option;  (* None when no injector was active *)
  fluid_stats : Fluid.stats option;  (* None when no fluid was attached *)
  hop_stats : hop_stats option;      (* None without a second hop *)
}

(* One-way propagation delay of the forward path. *)
let path_delay cfg =
  match cfg.second_hop with
  | None -> cfg.one_way_delay
  | Some h -> cfg.one_way_delay +. h.hop_delay

(* Mean base RTT, before queueing. *)
let base_rtt cfg = 2.0 *. path_delay cfg

let bdp_packets cfg =
  cfg.bottleneck_bps *. base_rtt cfg /. (8.0 *. float_of_int cfg.packet_size)

(* Queue capacity in packets after the 0-means-2.5-BDP default. *)
let queue_capacity cfg =
  let auto capacity =
    if capacity > 0 then capacity
    else max 4 (int_of_float (2.5 *. bdp_packets cfg))
  in
  match cfg.queue with
  | Drop_tail { capacity } | Red_auto { capacity } -> auto capacity
  | Red_manual { capacity; _ } -> capacity

let make_queue cfg =
  let bdp = bdp_packets cfg in
  let service_rate =
    cfg.bottleneck_bps /. (8.0 *. float_of_int cfg.packet_size)
  in
  let capacity = queue_capacity cfg in
  match cfg.queue with
  | Drop_tail _ ->
      Queue_discipline.create ~service_rate ~capacity Queue_discipline.Drop_tail
  | Red_auto _ ->
      Queue_discipline.create ~service_rate ~capacity
        (Queue_discipline.Red (Queue_discipline.default_red ~bdp))
  | Red_manual { params; _ } ->
      Queue_discipline.create ~service_rate ~capacity
        (Queue_discipline.Red params)

(* The fluid config a scenario attaches for [bg]: drop profile mirroring
   the packet queue, capacity and qmax shared with it. Exposed so the
   figure runners can query the analytic [Fluid.equilibrium] of exactly
   the aggregate the run used. *)
let fluid_config cfg (bg : background) =
  let capacity_pps =
    cfg.bottleneck_bps /. (8.0 *. float_of_int cfg.packet_size)
  in
  let qmax = float_of_int (queue_capacity cfg) in
  let ramp_of p =
    Fluid.Ramp
      {
        min_th = p.Queue_discipline.min_th;
        max_th = p.Queue_discipline.max_th;
        max_p = p.Queue_discipline.max_p;
      }
  in
  let profile =
    match cfg.queue with
    | Drop_tail _ -> Fluid.Tail { ramp = 0.25 }
    | Red_auto _ ->
        ramp_of (Queue_discipline.default_red ~bdp:(bdp_packets cfg))
    | Red_manual { params; _ } -> ramp_of params
  in
  Fluid.default ~profile ~share_cap:bg.bg_share_cap
    ~resolution:bg.bg_resolution ~flows:bg.bg_flows ~capacity_pps
    ~base_rtt:(base_rtt cfg) ~qmax ()

(* Per-flow endpoints built by [run]. The warmup counter marks live in
   flat int arrays keyed by flow id (TFRC flow i -> slot i, TCP flow
   j -> slot n_tfrc + j). *)
type tfrc_flow = { ts : Tfrc_sender.t; tr : Tfrc_receiver.t }
type tcp_flow = { cs : Tcp_sender.t; cr : Tcp_receiver.t }

(* Stream-run identity: a pure function of the scenario config, so the
   same simulation gets the same key no matter which pool domain it is
   scheduled on or in what order. Distinct sweep points differ in at
   least one of these fields; identical configs produce identical
   (deterministic) runs, so a key collision merely makes the finalized
   stream's stable sort see equal lines. Deliberately not the result
   cache's digest: that lives upstream of this module. *)
let stream_key cfg =
  let queue_tag =
    match cfg.queue with
    | Drop_tail { capacity } -> Printf.sprintf "dt%d" capacity
    | Red_auto { capacity } -> Printf.sprintf "reda%d" capacity
    | Red_manual { capacity; _ } -> Printf.sprintf "redm%d" capacity
  in
  Printf.sprintf "s%d:n%d+%d%s:d%g:w%g:%s%s%s%s" cfg.seed cfg.n_tfrc
    cfg.n_tcp
    (if cfg.with_probe then "+p" else "")
    cfg.duration cfg.warmup queue_tag
    (if cfg.faults <> None then ":f" else "")
    (if cfg.background <> None then ":bg" else "")
    (match cfg.second_hop with
    | None -> ""
    | Some h ->
        Printf.sprintf ":h%g/%g/%d/%g" h.hop_bps h.hop_delay h.hop_capacity
          h.cross_fraction)

let run cfg =
  if cfg.duration <= cfg.warmup then
    invalid_arg "Scenario.run: duration must exceed warmup";
  (match cfg.second_hop with
  | Some h when not (h.cross_fraction >= 0.0 && h.cross_fraction < 1.0) ->
      invalid_arg "Scenario.run: cross_fraction must be in [0, 1)"
  | _ -> ());
  let engine = Engine.create () in
  (* Live-stream sampling, attached once every component has
     registered its probes (below): the engine fires the sampler at
     sim-time boundaries (deterministic; see Engine.set_sampler), and
     the sampler reads only this engine's probes, so the emitted deltas
     are exactly this run's. *)
  let stream_run = ref None in
  let stream_end ~ok =
    match !stream_run with
    | Some r ->
        Stream.run_end r ~t_sim:(Engine.now engine)
          ~events:engine.Engine.processed
          ~pending:(Engine.pending engine) ~ok;
        Engine.clear_sampler engine
    | None -> ()
  in
  let guarded_run ~until =
    try ignore (Engine.run ~until engine : Engine.stop_reason)
    with e ->
      stream_end ~ok:false;
      raise e
  in
  let master = Prng.create ~seed:cfg.seed in
  let queue = make_queue cfg in
  let link =
    Link.create ~engine ~rate_bps:cfg.bottleneck_bps ~delay:cfg.one_way_delay
      ~queue ~rng:(Prng.split master)
  in
  (* The second hop takes the next master split, and the bottleneck
     forwards into it. *)
  let hop =
    Option.map
      (fun h ->
        let service_rate =
          h.hop_bps /. (8.0 *. float_of_int cfg.packet_size)
        in
        let queue =
          Queue_discipline.create ~service_rate ~capacity:h.hop_capacity
            Queue_discipline.Drop_tail
        in
        let l =
          Link.create ~engine ~rate_bps:h.hop_bps ~delay:h.hop_delay ~queue
            ~rng:(Prng.split master)
        in
        Link.set_deliver link (fun pkt -> Link.send l pkt);
        (h, l))
      cfg.second_hop
  in
  let last_link = match hop with Some (_, l) -> l | None -> link in
  let rtt0 = base_rtt cfg in
  let formula =
    Formula.create ~rtt:rtt0 cfg.tfrc_formula_kind
  in
  (* Fluid background aggregate. Like the fault injector, it is only
     constructed when configured, and it draws no randomness at all
     (its sync points are quantized event times), so
     [background = None] leaves the packet-only run bit-identical. The
     drop profile mirrors the packet queue so both traffic classes see
     the same congestion signal. *)
  let fluid =
    match cfg.background with
    | Some bg ->
        let fl = Fluid.create (fluid_config cfg bg) in
        Link.attach_fluid link fl;
        Engine.set_advance_hook engine
          (Some
             (fun now ->
               Fluid.set_pkt_occupancy fl (Queue_discipline.occupancy queue);
               Fluid.sync fl ~now));
        Some fl
    | None -> None
  in
  (* Per-flow reverse delays with +/-reverse_jitter spread: breaks
     DropTail phase effects and, at larger spreads, exercises the
     paper's sub-condition 3 (the r'/r comparison) under heterogeneous
     round-trip times. *)
  if cfg.reverse_jitter < 0.0 || cfg.reverse_jitter >= 1.0 then
    invalid_arg "Scenario.run: reverse_jitter must be in [0, 1)";
  let owd = path_delay cfg in
  let reverse_delay () =
    let j = cfg.reverse_jitter in
    owd *. (1.0 -. j +. (2.0 *. j *. Prng.float_unit master))
  in
  (* Fault injector. Its PRNG is a pure function of the scenario seed
     (Prng.stream, not a split of [master]), so configuring faults
     never perturbs the master draw sequence — and with faults absent
     the run is bit-identical to a fault-free one. *)
  let fault =
    match cfg.faults with
    | Some fc ->
        let inj =
          Fault.create ~engine ~rng:(Prng.stream ~root:cfg.seed 9001) fc
        in
        if Fault.active inj then Some inj else None
    | None -> None
  in
  let send_link pkt = Link.send link pkt in
  let forward =
    match fault with Some f -> Fault.wrap_forward f send_link | None -> send_link
  in
  let feedback_sink sink =
    match fault with Some f -> Fault.wrap_feedback f sink | None -> sink
  in
  (* --- TFRC flows: ids 0 .. n_tfrc-1 --- *)
  let tfrc_flows =
    Array.init cfg.n_tfrc (fun i ->
        let flow = i in
        let ts =
          Tfrc_sender.create ~packet_size:cfg.packet_size
            ~conform_to_analysis:cfg.tfrc_conform_to_analysis ~engine ~flow
            ~formula ()
        in
        let tr =
          Tfrc_receiver.create ~comprehensive:cfg.tfrc_comprehensive ~engine
            ~flow ~l:cfg.tfrc_l ~rtt:rtt0 ()
        in
        let rd = reverse_delay () in
        Tfrc_sender.set_transmit ts forward;
        (* Feedback travels the reverse path with the per-flow
           constant delay [rd]. *)
        Tfrc_receiver.set_feedback_sink tr
          (feedback_sink (fun pkt ->
               Engine.schedule_unit engine
                 ~at:(engine.Engine.now +. rd)
                 (fun () -> Tfrc_sender.on_packet ts pkt)));
        { ts; tr })
  in
  (* --- TCP flows: ids n_tfrc .. n_tfrc+n_tcp-1 --- *)
  let tcp_flows =
    Array.init cfg.n_tcp (fun i ->
        let flow = cfg.n_tfrc + i in
        let cs =
          Tcp_sender.create ~packet_size:cfg.packet_size ~engine ~flow ()
        in
        let cr = Tcp_receiver.create ~engine ~flow () in
        let rd = reverse_delay () in
        (* Forward-path faults (flaps, spikes, reordering, duplication)
           hit all traffic classes; blackouts are one-way and
           TFRC-feedback-only, so TCP acks stay clean — the contrast
           isolates the nofeedback-timer mechanism. *)
        Tcp_sender.set_transmit cs forward;
        (* Acks take the same constant reverse delay as feedback. *)
        Tcp_receiver.set_ack_sink cr (fun ~acked ~dup ~echo ->
            Engine.schedule_unit engine ~at:(engine.Engine.now +. rd)
              (fun () -> Tcp_sender.on_ack cs ~acked ~dup ~echo));
        { cs; cr })
  in
  (* --- optional Poisson probe: id n_tfrc + n_tcp --- *)
  let probe_flow = cfg.n_tfrc + cfg.n_tcp in
  let probe =
    if not cfg.with_probe then None
    else begin
      let rate =
        0.01 *. cfg.bottleneck_bps /. (8.0 *. float_of_int cfg.packet_size)
      in
      let src =
        Probe_source.create ~packet_size:cfg.packet_size ~engine
          ~flow:probe_flow ~rate
          ~pacing:(Probe_source.Poisson (Prng.split master))
          ()
      in
      (* p''s window is the base RTT, like p's (the TFRC receivers
         above). *)
      let sink = Gap_sink.create ~window:rtt0 in
      Probe_source.set_transmit src forward;
      Some (src, sink)
    end
  in
  (* --- optional Poisson cross traffic: id n_tfrc + n_tcp + 1; it
     joins at router 2 and leaves after the hop --- *)
  let cross =
    match hop with
    | Some (h, l) when h.cross_fraction > 0.0 ->
        let rate =
          h.cross_fraction *. h.hop_bps /. (8.0 *. float_of_int cfg.packet_size)
        in
        let src =
          Probe_source.create ~packet_size:cfg.packet_size ~engine
            ~flow:(probe_flow + 1) ~rate
            ~pacing:(Probe_source.Poisson (Prng.split master))
            ()
        in
        Probe_source.set_transmit src (fun pkt -> Link.send l pkt);
        Some src
    | _ -> None
  in
  (* --- forward demux; cross traffic sinks silently --- *)
  Link.set_deliver last_link (fun pkt ->
      let now = engine.Engine.now in
      let f = pkt.Packet.flow in
      if f < cfg.n_tfrc then Tfrc_receiver.on_data tfrc_flows.(f).tr pkt
      else if f < probe_flow then
        Tcp_receiver.on_data tcp_flows.(f - cfg.n_tfrc).cr pkt
      else
        match probe with
        | Some (_, sink) when f = probe_flow -> Gap_sink.on_packet sink ~now pkt
        | _ -> ());
  (* --- start: staggered over the first second to avoid lockstep --- *)
  Array.iter
    (fun fl ->
      let t0 = Prng.float_unit master in
      Engine.schedule_unit engine ~at:t0 (fun () -> Tfrc_sender.start fl.ts))
    tfrc_flows;
  Array.iter
    (fun fl ->
      let t0 = Prng.float_unit master in
      Engine.schedule_unit engine ~at:t0 (fun () -> Tcp_sender.start fl.cs))
    tcp_flows;
  (match probe with
  | Some (src, _) ->
      Engine.schedule_unit engine ~at:0.5 (fun () -> Probe_source.start src)
  | None -> ());
  (match cross with
  | Some src ->
      Engine.schedule_unit engine ~at:0.2 (fun () -> Probe_source.start src)
  | None -> ());
  if Stream.sim_active () then begin
    let r = Stream.run_start ~key:(stream_key cfg) engine.Engine.probes in
    Engine.set_sampler engine ~period:(Stream.sim_period ()) (fun b ->
        Stream.sample r ~t_sim:b ~events:engine.Engine.processed
          ~pending:(Engine.pending engine));
    stream_run := Some r
  end;
  (* --- warmup phase, snapshot, measurement phase --- *)
  guarded_run ~until:cfg.warmup;
  (* Warmup marks, one slot per measured flow, indexed by flow id (TFRC
     i -> i, TCP j -> n_tfrc + j, the probe -> probe_flow). *)
  let snap_recv = Array.make (probe_flow + 1) 0
  and snap_ivs = Array.make (probe_flow + 1) 0
  and snap_pairs = Array.make cfg.n_tfrc 0 in
  let mark flow ~recv events =
    snap_recv.(flow) <- recv;
    snap_ivs.(flow) <- Loss_events.completed events
  in
  Array.iteri
    (fun i fl ->
      let hist = Tfrc_receiver.history fl.tr in
      mark i ~recv:(Tfrc_receiver.received fl.tr)
        (Loss_history.loss_events hist);
      snap_pairs.(i) <- Loss_history.pair_count hist)
    tfrc_flows;
  Array.iteri
    (fun j fl ->
      mark (cfg.n_tfrc + j) ~recv:(Tcp_receiver.received fl.cr)
        (Tcp_sender.loss_events fl.cs))
    tcp_flows;
  Option.iter
    (fun (_, sink) ->
      mark probe_flow ~recv:(Gap_sink.received sink)
        (Gap_sink.loss_events sink))
    probe;
  let drops_at_warmup = Queue_discipline.drops queue in
  let delivered_at_warmup = Link.bytes_delivered link in
  let hop_drops_at_warmup =
    Queue_discipline.drops (Link.queue last_link)
  and hop_delivered_at_warmup = Link.bytes_delivered last_link in
  guarded_run ~until:cfg.duration;
  stream_end ~ok:true;
  let window = cfg.duration -. cfg.warmup in
  let measure flow ~recv ~mean_rtt:r ~pairs events =
    let since = snap_ivs.(flow) in
    {
      flow;
      throughput_pps = float_of_int (recv - snap_recv.(flow)) /. window;
      loss_event_rate = Loss_events.rate events ~since;
      mean_rtt = (if Float.is_nan r || r <= 0.0 then rtt0 else r);
      loss_intervals = Loss_events.intervals events ~since;
      estimate_pairs = pairs;
    }
  in
  let tfrc_measures =
    Array.mapi
      (fun i fl ->
        let hist = Tfrc_receiver.history fl.tr in
        measure i ~recv:(Tfrc_receiver.received fl.tr)
          ~mean_rtt:(Tfrc_sender.mean_rtt fl.ts)
          ~pairs:(Loss_history.estimate_pairs hist ~since:snap_pairs.(i))
          (Loss_history.loss_events hist))
      tfrc_flows
  in
  let tcp_measures =
    Array.mapi
      (fun j fl ->
        measure (cfg.n_tfrc + j) ~recv:(Tcp_receiver.received fl.cr)
          ~mean_rtt:(Tcp_sender.mean_rtt fl.cs) ~pairs:[||]
          (Tcp_sender.loss_events fl.cs))
      tcp_flows
  in
  let probe_measure =
    Option.map
      (fun (_, sink) ->
        measure probe_flow ~recv:(Gap_sink.received sink) ~mean_rtt:rtt0
          ~pairs:[||] (Gap_sink.loss_events sink))
      probe
  in
  {
    tfrc = tfrc_measures;
    tcp = tcp_measures;
    probe = probe_measure;
    link_utilization =
      8.0
      *. float_of_int (Link.bytes_delivered link - delivered_at_warmup)
      /. (cfg.bottleneck_bps *. window);
    queue_drops = Queue_discipline.drops queue - drops_at_warmup;
    sim_time = Engine.now engine;
    tfrc_halvings =
      Array.fold_left
        (fun acc fl -> acc + Tfrc_sender.rate_halvings fl.ts)
        0 tfrc_flows;
    fault_stats = Option.map Fault.stats fault;
    fluid_stats = Option.map Fluid.stats fluid;
    hop_stats =
      Option.map
        (fun (h, l) ->
          {
            hop_drops =
              Queue_discipline.drops (Link.queue l) - hop_drops_at_warmup;
            hop_utilization =
              8.0
              *. float_of_int (Link.bytes_delivered l - hop_delivered_at_warmup)
              /. (h.hop_bps *. window);
          })
        hop;
  }

(* Aggregate helpers used by the figure runners. *)

let mean_of f arr =
  if Array.length arr = 0 then nan
  else Array.fold_left (fun acc m -> acc +. f m) 0.0 arr /. float_of_int (Array.length arr)

let mean_throughput ms = mean_of (fun m -> m.throughput_pps) ms
let mean_loss_rate ms = mean_of (fun m -> m.loss_event_rate) ms
let mean_rtt ms = mean_of (fun m -> m.mean_rtt) ms

let pooled_pairs ms =
  Array.concat (Array.to_list (Array.map (fun m -> m.estimate_pairs) ms))

(* Loss-event rate over the union of all flows' completed intervals —
   the stable per-scenario estimate (per-flow estimates are noisy and
   bias ratios through the nonlinearity of f). *)
let pooled_loss_rate ms =
  let count = ref 0 and total = ref 0.0 in
  Array.iter
    (fun m ->
      count := !count + Array.length m.loss_intervals;
      total := !total +. Array.fold_left ( +. ) 0.0 m.loss_intervals)
    ms;
  if !count = 0 then 0.0 else float_of_int !count /. !total

(* ------------------------- robust presets -------------------------- *)

(* Stress scenarios for the paper's qualitative claims outside the
   clean closed-form world (the lab/Internet experiments of Sections
   6-7): the control loop degrades, and TFRC's safety mechanisms — the
   nofeedback timer, the conservative formula response to loss bursts
   — keep it conservative rather than letting it overshoot. *)

(* Recurring 15 s one-way feedback blackouts. With feedback gone for
   >> 4 RTTs, the RFC 3448 nofeedback timer must fire repeatedly
   (halving the rate each time) — the regression pinned by test_fault. *)
let robust_blackout_config =
  {
    default_config with
    seed = 71;
    n_tfrc = 2;
    n_tcp = 2;
    with_probe = false;
    duration = 160.0;
    warmup = 30.0;
    faults =
      Some
        {
          Fault.none with
          Fault.blackouts =
            [ { Fault.start = 60.0; length = 15.0; period = 50.0 } ];
        };
  }

(* Random link up/down flaps (outages ~1.5 s, up-times ~8 s): loss
   bursts and dead air on the forward path. TFRC should track the
   degraded loss process and stay at or below the formula rate f(p). *)
let robust_flaps_config =
  {
    default_config with
    seed = 72;
    n_tfrc = 2;
    n_tcp = 2;
    with_probe = false;
    duration = 160.0;
    warmup = 30.0;
    faults =
      Some
        {
          Fault.none with
          Fault.flaps =
            Some
              { Fault.first_down = 50.0; down_mean = 1.5; up_mean = 8.0;
                flap_jitter = 0.4; park = false };
        };
  }

(* Everything at once — parked-packet flaps, delay spikes, reordering,
   duplication, a one-shot blackout — the determinism workout: the
   whole schedule must be a pure function of the seed. *)
let robust_chaos_config =
  {
    default_config with
    seed = 73;
    n_tfrc = 2;
    n_tcp = 2;
    with_probe = true;
    duration = 120.0;
    warmup = 30.0;
    faults =
      Some
        {
          Fault.flaps =
            Some
              { Fault.first_down = 40.0; down_mean = 0.5; up_mean = 6.0;
                flap_jitter = 0.3; park = true };
          blackouts = [ { Fault.start = 70.0; length = 5.0; period = 0.0 } ];
          spike =
            Some ({ Fault.start = 50.0; length = 10.0; period = 40.0 }, 0.03);
          reorder =
            Some
              ({ Fault.start = 45.0; length = 10.0; period = 35.0 }, 0.2,
               0.005);
          duplicate =
            Some ({ Fault.start = 55.0; length = 10.0; period = 45.0 }, 0.1);
        };
  }

(* The two-router chain of ablation A9: equal 10 Mb/s DropTail-60 links
   with 30% Poisson cross traffic on the second. A fast hop with no
   cross traffic degenerates to the dumbbell. *)
let chain_config =
  {
    default_config with
    bottleneck_bps = 10e6;
    one_way_delay = 0.01;
    queue = Drop_tail { capacity = 60 };
    n_tfrc = 2;
    n_tcp = 2;
    with_probe = false;
    duration = 120.0;
    warmup = 30.0;
    second_hop =
      Some
        { hop_bps = 10e6; hop_delay = 0.02; hop_capacity = 60;
          cross_fraction = 0.3 };
  }
