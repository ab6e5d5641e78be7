(* The Claim-2 / Figure-6 scenario: an audio-like sender with a fixed
   packet send rate (one packet per 20 ms in the paper) and equation-
   controlled packet lengths, behind a Bernoulli dropper with a fixed
   per-packet drop probability. Packet drops are independent of packet
   length, so cov[X_0, S_0] = 0 and Claim 2 applies: conservative where
   f(1/x) is concave (SQRT, or PFTK with rare losses), non-conservative
   where it is strictly convex (PFTK with heavy losses). *)

module Engine = Ebrc_sim.Engine
module Prng = Ebrc_rng.Prng
module Audio_source = Ebrc_sources.Audio_source
module Loss_module = Ebrc_net.Loss_module
module Loss_history = Ebrc_tfrc.Loss_history
module Loss_events = Ebrc_net.Loss_events
module Formula = Ebrc_formulas.Formula
module Descriptive = Ebrc_stats.Descriptive
module Fault = Ebrc_net.Fault

type dropper_mode =
  | Packet_mode            (* drop independent of packet length (Claim 2) *)
  | Byte_mode              (* drop probability scales with packet length *)

type config = {
  seed : int;
  drop_p : float;              (* Bernoulli per-packet drop probability *)
  period : float;              (* fixed inter-packet time, s *)
  l : int;                     (* estimator window *)
  comprehensive : bool;
  formula_kind : Formula.kind;
  duration : float;
  warmup : float;
  one_way_delay : float;
  dropper_mode : dropper_mode;
  faults : Fault.config option;  (* injected on the dropper channel *)
}

let default_config =
  {
    seed = 7;
    drop_p = 0.05;
    period = 0.02;
    l = 4;
    comprehensive = false;
    formula_kind = Formula.Pftk_simplified;
    duration = 2000.0;
    warmup = 200.0;
    one_way_delay = 0.02;
    dropper_mode = Packet_mode;
    faults = None;
  }

type result = {
  normalized_throughput : float;   (* x_bar / f(p_observed) *)
  p_observed : float;              (* empirical loss-event rate *)
  cv2_thetahat : float;            (* squared CV of the estimator *)
  events : int;
  packets : int;
}

let run cfg =
  if cfg.duration <= cfg.warmup then
    invalid_arg "Audio_scenario.run: duration must exceed warmup";
  let engine = Engine.create () in
  let rng = Prng.create ~seed:cfg.seed in
  let rtt = 2.0 *. cfg.one_way_delay in
  let formula = Formula.create ~rtt cfg.formula_kind in
  let source =
    Audio_source.create ~comprehensive:cfg.comprehensive ~l:cfg.l ~engine
      ~flow:0 ~period:cfg.period ~formula ~rtt ()
  in
  let dropper =
    match cfg.dropper_mode with
    | Packet_mode -> Loss_module.bernoulli rng ~p:cfg.drop_p
    | Byte_mode ->
        (* Reference size: the fixed point f(drop_p) * period units of
           base_size bytes, so the average drop probability matches the
           packet-mode run. *)
        let fixed_units = Formula.eval formula cfg.drop_p *. cfg.period in
        let ref_size = max 1 (int_of_float (fixed_units *. 100.0)) in
        Loss_module.bernoulli_bytes rng ~p_ref:cfg.drop_p ~ref_size
  in
  Loss_module.add_probes dropper engine.Engine.probes;
  (* Rate samples restricted to the measurement window, with the
     estimator value at each loss event for the CV statistic. *)
  let rate_sum = ref 0.0 and rate_n = ref 0 in
  let thetahats = ref [] in
  let measuring () = Engine.now engine >= cfg.warmup in
  (* The fault injector wraps the whole dropper channel (same PRNG
     contract as Scenario: a Prng.stream of the seed, so fault-free
     runs are untouched). There is no feedback path here — the source
     reads its own history — so only forward faults apply. *)
  let fault =
    match cfg.faults with
    | Some fc ->
        let inj =
          Fault.create ~engine ~rng:(Prng.stream ~root:cfg.seed 9001) fc
        in
        if Fault.active inj then Some inj else None
    | None -> None
  in
  let hist = Audio_source.history source in
  let events = Loss_history.loss_events hist in
  let channel pkt =
    if Loss_module.process dropper pkt then
      Engine.schedule_after_unit engine ~delay:cfg.one_way_delay (fun () ->
          let before = Loss_events.events events in
          Audio_source.on_receiver_packet source ~seq:pkt.Ebrc_net.Packet.seq;
          if measuring () && Loss_events.events events > before then
            thetahats := Loss_history.average_interval hist :: !thetahats)
  in
  let channel =
    match fault with Some f -> Fault.wrap_forward f channel | None -> channel
  in
  Audio_source.set_transmit source (fun pkt ->
      if measuring () then begin
        rate_sum := !rate_sum +. Audio_source.rate_units source;
        incr rate_n
      end;
      channel pkt);
  (* Completed intervals at warmup: the mark for the empirical
     loss-event rate. *)
  let ivs_at_warmup = ref 0 in
  Engine.schedule_unit engine ~at:cfg.warmup (fun () ->
      ivs_at_warmup := Loss_events.completed events);
  Audio_source.start source;
  ignore (Engine.run ~until:cfg.duration engine);
  let p_observed = Loss_events.rate events ~since:!ivs_at_warmup in
  let mean_rate = if !rate_n = 0 then 0.0 else !rate_sum /. float_of_int !rate_n in
  let normalized =
    if p_observed > 0.0 then mean_rate /. Formula.eval formula p_observed
    else nan
  in
  let cv2 =
    let arr = Array.of_list !thetahats in
    if Array.length arr < 2 then 0.0
    else
      let cv = Descriptive.coefficient_of_variation arr in
      cv *. cv
  in
  {
    normalized_throughput = normalized;
    p_observed;
    cv2_thetahat = cv2;
    events = Loss_events.events events;
    packets = Audio_source.sent source;
  }
