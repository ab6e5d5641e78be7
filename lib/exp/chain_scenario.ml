(* A two-router chain, generalising the paper's lab topology: traffic
   traverses two links in series, each with its own queue, and optional
   CBR cross-traffic loads the second link only.

     senders -> [q1 | link1] -> [q2 | link2] -> receivers
                                 ^
                      cross-traffic (joins at router 2)

   With link2 faster than link1 this degenerates to the dumbbell (the
   paper's setup: second router purely adds delay); with comparable
   rates plus cross-traffic, losses occur at two places and the
   loss-event process seen end-to-end is a superposition — a stress
   test for the loss-history aggregation. *)

module Engine = Ebrc_sim.Engine
module Prng = Ebrc_rng.Prng
module Packet = Ebrc_net.Packet
module Link = Ebrc_net.Link
module Queue_discipline = Ebrc_net.Queue_discipline
module Tcp_sender = Ebrc_tcp.Tcp_sender
module Tcp_receiver = Ebrc_tcp.Tcp_receiver
module Tfrc_sender = Ebrc_tfrc.Tfrc_sender
module Tfrc_receiver = Ebrc_tfrc.Tfrc_receiver
module Loss_history = Ebrc_tfrc.Loss_history
module Probe_source = Ebrc_sources.Probe_source
module Formula = Ebrc_formulas.Formula
module Fault = Ebrc_net.Fault

type config = {
  seed : int;
  link1_bps : float;
  link2_bps : float;
  delay1 : float;               (* propagation of link 1, seconds *)
  delay2 : float;
  queue1_capacity : int;
  queue2_capacity : int;
  cross_rate_fraction : float;  (* CBR cross load as fraction of link2 *)
  n_tfrc : int;
  n_tcp : int;
  tfrc_l : int;
  duration : float;
  warmup : float;
  packet_size : int;
  faults : Fault.config option; (* injected at the link-1 ingress and on
                                   the TFRC feedback path *)
}

let default_config =
  {
    seed = 42;
    link1_bps = 10e6;
    link2_bps = 10e6;
    delay1 = 0.01;
    delay2 = 0.02;
    queue1_capacity = 60;
    queue2_capacity = 60;
    cross_rate_fraction = 0.3;
    n_tfrc = 2;
    n_tcp = 2;
    tfrc_l = 8;
    duration = 120.0;
    warmup = 30.0;
    packet_size = 1000;
    faults = None;
  }

type class_measure = {
  throughput_pps : float;
  loss_event_rate : float;
  mean_rtt : float;
}

type result = {
  tfrc : class_measure;
  tcp : class_measure;
  drops_link1 : int;
  drops_link2 : int;
  utilization1 : float;
  utilization2 : float;
}

let base_rtt cfg = 2.0 *. (cfg.delay1 +. cfg.delay2)

let run cfg =
  if cfg.duration <= cfg.warmup then
    invalid_arg "Chain_scenario.run: duration must exceed warmup";
  if cfg.cross_rate_fraction < 0.0 || cfg.cross_rate_fraction >= 1.0 then
    invalid_arg "Chain_scenario.run: cross fraction in [0,1)";
  let engine = Engine.create () in
  let master = Prng.create ~seed:cfg.seed in
  let mk_link ~bps ~delay ~capacity =
    let service_rate = bps /. (8.0 *. float_of_int cfg.packet_size) in
    let queue =
      Queue_discipline.create ~service_rate ~capacity Queue_discipline.Drop_tail
    in
    Link.create ~engine ~rate_bps:bps ~delay ~queue ~rng:(Prng.split master)
  in
  let link1 = mk_link ~bps:cfg.link1_bps ~delay:cfg.delay1 ~capacity:cfg.queue1_capacity in
  let link2 = mk_link ~bps:cfg.link2_bps ~delay:cfg.delay2 ~capacity:cfg.queue2_capacity in
  Link.set_deliver link1 (fun pkt -> Link.send link2 pkt);
  let rtt0 = base_rtt cfg in
  let formula = Formula.create ~rtt:rtt0 Formula.Pftk_standard in
  let reverse_delay () = (cfg.delay1 +. cfg.delay2) *. (0.9 +. (0.2 *. Prng.float_unit master)) in
  (* Faults hit the first-hop ingress (the paper's lab topology put the
     perturbed segment first) and the TFRC feedback path; same
     stream-derived PRNG contract as Scenario. *)
  let fault =
    match cfg.faults with
    | Some fc ->
        let inj =
          Fault.create ~engine ~rng:(Prng.stream ~root:cfg.seed 9001) fc
        in
        if Fault.active inj then Some inj else None
    | None -> None
  in
  let send_link1 pkt = Link.send link1 pkt in
  let forward =
    match fault with
    | Some f -> Fault.wrap_forward f send_link1
    | None -> send_link1
  in
  let feedback_sink sink =
    match fault with Some f -> Fault.wrap_feedback f sink | None -> sink
  in
  (* TFRC flows 0..n_tfrc-1, TCP flows follow, cross flow last. *)
  let tfrc =
    Array.init cfg.n_tfrc (fun flow ->
        let ts =
          Tfrc_sender.create ~packet_size:cfg.packet_size ~engine ~flow
            ~formula ()
        in
        let tr =
          Tfrc_receiver.create ~engine ~flow ~l:cfg.tfrc_l ~rtt:rtt0 ()
        in
        let rd = reverse_delay () in
        Tfrc_sender.set_transmit ts forward;
        Tfrc_receiver.set_feedback_sink tr
          (feedback_sink (fun pkt ->
               Engine.schedule_after_unit engine ~delay:rd (fun () ->
                   Tfrc_sender.on_packet ts pkt)));
        (ts, tr))
  in
  let tcp =
    Array.init cfg.n_tcp (fun i ->
        let flow = cfg.n_tfrc + i in
        let cs = Tcp_sender.create ~packet_size:cfg.packet_size ~engine ~flow () in
        let cr = Tcp_receiver.create ~engine ~flow () in
        let rd = reverse_delay () in
        Tcp_sender.set_transmit cs forward;
        Tcp_receiver.set_ack_sink cr (fun ~acked ~dup ~echo ->
            Engine.schedule_after_unit engine ~delay:rd (fun () ->
                Tcp_sender.on_ack cs ~acked ~dup ~echo));
        (cs, cr))
  in
  let cross_flow = cfg.n_tfrc + cfg.n_tcp in
  let cross =
    if cfg.cross_rate_fraction = 0.0 then None
    else begin
      let rate =
        cfg.cross_rate_fraction *. cfg.link2_bps
        /. (8.0 *. float_of_int cfg.packet_size)
      in
      let src =
        Probe_source.create ~packet_size:cfg.packet_size ~engine
          ~flow:cross_flow ~rate
          ~pacing:(Probe_source.Poisson (Prng.split master))
          ()
      in
      (* Cross traffic joins at router 2 and leaves after link 2. *)
      Probe_source.set_transmit src (fun pkt -> Link.send link2 pkt);
      Some src
    end
  in
  Link.set_deliver link2 (fun pkt ->
      let f = pkt.Packet.flow in
      if f < cfg.n_tfrc then Tfrc_receiver.on_data (snd tfrc.(f)) pkt
      else if f < cross_flow then
        Tcp_receiver.on_data (snd tcp.(f - cfg.n_tfrc)) pkt
      else () (* cross traffic sinks silently *));
  Array.iter
    (fun (ts, _) ->
      let t0 = Prng.float_unit master in
      Engine.schedule_unit engine ~at:t0 (fun () -> Tfrc_sender.start ts))
    tfrc;
  Array.iter
    (fun (cs, _) ->
      let t0 = Prng.float_unit master in
      Engine.schedule_unit engine ~at:t0 (fun () -> Tcp_sender.start cs))
    tcp;
  (match cross with
  | Some src ->
      Engine.schedule_unit engine ~at:0.2 (fun () -> Probe_source.start src)
  | None -> ());
  ignore (Engine.run ~until:cfg.warmup engine);
  let snap_recv_tfrc = Array.map (fun (_, tr) -> Tfrc_receiver.received tr) tfrc in
  let snap_recv_tcp = Array.map (fun (_, cr) -> Tcp_receiver.received cr) tcp in
  let snap_iv_tfrc =
    Array.map
      (fun (_, tr) ->
        Loss_history.interval_count (Tfrc_receiver.history tr))
      tfrc
  in
  let snap_iv_tcp =
    Array.map (fun (cs, _) -> Tcp_sender.interval_count cs) tcp
  in
  let drops1_warm = Queue_discipline.drops (Link.queue link1) in
  let drops2_warm = Queue_discipline.drops (Link.queue link2) in
  let bytes1_warm = Link.bytes_delivered link1 in
  let bytes2_warm = Link.bytes_delivered link2 in
  ignore (Engine.run ~until:cfg.duration engine);
  let window = cfg.duration -. cfg.warmup in
  let interval_rate ivs =
    if Array.length ivs = 0 then 0.0
    else float_of_int (Array.length ivs) /. Array.fold_left ( +. ) 0.0 ivs
  in
  let tail arr from = Array.sub arr from (Array.length arr - from) in
  let tfrc_measure =
    let recvs = ref 0 and ivs = ref [] and rtts = ref [] in
    Array.iteri
      (fun i (ts, tr) ->
        recvs := !recvs + (Tfrc_receiver.received tr - snap_recv_tfrc.(i));
        ivs :=
          tail
            (Loss_history.completed_intervals (Tfrc_receiver.history tr))
            snap_iv_tfrc.(i)
          :: !ivs;
        let r = Tfrc_sender.mean_rtt ts in
        if not (Float.is_nan r) && r > 0.0 then rtts := r :: !rtts)
      tfrc;
    {
      throughput_pps =
        float_of_int !recvs /. window /. float_of_int (max 1 cfg.n_tfrc);
      loss_event_rate = interval_rate (Array.concat !ivs);
      mean_rtt =
        (match !rtts with
        | [] -> rtt0
        | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l));
    }
  in
  let tcp_measure =
    let recvs = ref 0 and ivs = ref [] and rtts = ref [] in
    Array.iteri
      (fun i (cs, cr) ->
        recvs := !recvs + (Tcp_receiver.received cr - snap_recv_tcp.(i));
        ivs := tail (Tcp_sender.loss_event_intervals cs) snap_iv_tcp.(i) :: !ivs;
        let r = Tcp_sender.mean_rtt cs in
        if not (Float.is_nan r) && r > 0.0 then rtts := r :: !rtts)
      tcp;
    {
      throughput_pps =
        float_of_int !recvs /. window /. float_of_int (max 1 cfg.n_tcp);
      loss_event_rate = interval_rate (Array.concat !ivs);
      mean_rtt =
        (match !rtts with
        | [] -> rtt0
        | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l));
    }
  in
  {
    tfrc = tfrc_measure;
    tcp = tcp_measure;
    drops_link1 = Queue_discipline.drops (Link.queue link1) - drops1_warm;
    drops_link2 = Queue_discipline.drops (Link.queue link2) - drops2_warm;
    utilization1 =
      8.0
      *. float_of_int (Link.bytes_delivered link1 - bytes1_warm)
      /. (cfg.link1_bps *. window);
    utilization2 =
      8.0
      *. float_of_int (Link.bytes_delivered link2 - bytes2_warm)
      /. (cfg.link2_bps *. window);
  }
