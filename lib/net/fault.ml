(* Deterministic fault injection: link flaps, delay spikes, reordering,
   duplication, feedback blackouts. Composes with any packet sink by
   wrapping it; every random choice comes from the injector's own Prng
   stream, so fault schedules are a pure function of the scenario seed.

   Design notes:
   - Episode windows (blackout/spike/reorder/duplicate) are pure
     arithmetic on simulated time: membership is a subtraction, an
     optional Float.rem, and a compare. No PRNG draws, no events.
   - Only the flap state machine, delay spikes and reorder holds
     schedule events (schedule_unit).
   - Inert injectors (an empty config) return the underlying sink
     physically unchanged from wrap_*, so such a run is bit-identical
     to one that never configured faults. *)

module Engine = Ebrc_sim.Engine
module Prng = Ebrc_rng.Prng
module Tm = Ebrc_telemetry.Telemetry

type flaps = {
  first_down : float;
  down_mean : float;
  up_mean : float;
  flap_jitter : float;
  park : bool;
}

type window = { start : float; length : float; period : float }

type config = {
  flaps : flaps option;
  blackouts : window list;
  spike : (window * float) option;
  reorder : (window * float * float) option;
  duplicate : (window * float) option;
}

let none =
  { flaps = None; blackouts = []; spike = None; reorder = None;
    duplicate = None }

type stats = {
  transitions : int;
  down_drops : int;
  parked : int;
  spiked : int;
  reordered : int;
  duplicated : int;
  blackout_drops : int;
}

type t = {
  engine : Engine.t;
  rng : Prng.t;
  cfg : config;
  live : bool;                 (* false = inert *)
  mutable link_up : bool;
  parked_q : (Packet.t * (Packet.t -> unit)) Queue.t;
  mutable s_transitions : int;
  mutable s_down_drops : int;
  mutable s_parked : int;
  mutable s_spiked : int;
  mutable s_reordered : int;
  mutable s_duplicated : int;
  mutable s_blackout_drops : int;
}

let probe_keys =
  [
    ("fault.transitions", "fault: link up/down transitions",
     fun t -> t.s_transitions);
    ("fault.down_drops", "fault: packets dropped while link down",
     fun t -> t.s_down_drops);
    ("fault.parked", "fault: packets parked while link down",
     fun t -> t.s_parked);
    ("fault.spiked", "fault: packets given a delay spike",
     fun t -> t.s_spiked);
    ("fault.reordered", "fault: packets held back for reordering",
     fun t -> t.s_reordered);
    ("fault.duplicated", "fault: duplicate copies injected",
     fun t -> t.s_duplicated);
    ("fault.blackout_drops", "fault: feedback packets dropped in blackouts",
     fun t -> t.s_blackout_drops);
  ]
  |> List.map (fun (name, help, get) -> (Tm.Probe.counter ~help name, get))

let check_window what (w : window) =
  if not (Float.is_finite w.start) || w.start < 0.0 then
    invalid_arg (Printf.sprintf "Fault: %s window start must be >= 0" what);
  if not (Float.is_finite w.length) || w.length <= 0.0 then
    invalid_arg (Printf.sprintf "Fault: %s window length must be > 0" what);
  if Float.is_nan w.period || (w.period <> 0.0 && w.period < w.length) then
    invalid_arg
      (Printf.sprintf "Fault: %s window period must be 0 or >= length" what)

let check_prob what p =
  if not (Float.is_finite p) || p < 0.0 || p > 1.0 then
    invalid_arg (Printf.sprintf "Fault: %s probability must be in [0, 1]" what)

let validate (cfg : config) =
  (match cfg.flaps with
   | None -> ()
   | Some f ->
       if not (Float.is_finite f.first_down) || f.first_down < 0.0 then
         invalid_arg "Fault: flaps first_down must be >= 0";
       if not (Float.is_finite f.down_mean) || f.down_mean <= 0.0 then
         invalid_arg "Fault: flaps down_mean must be > 0";
       if not (Float.is_finite f.up_mean) || f.up_mean <= 0.0 then
         invalid_arg "Fault: flaps up_mean must be > 0";
       if not (Float.is_finite f.flap_jitter)
          || f.flap_jitter < 0.0 || f.flap_jitter >= 1.0 then
         invalid_arg "Fault: flap_jitter must be in [0, 1)");
  List.iter (check_window "blackout") cfg.blackouts;
  (match cfg.spike with
   | None -> ()
   | Some (w, d) ->
       check_window "spike" w;
       if not (Float.is_finite d) || d <= 0.0 then
         invalid_arg "Fault: spike extra delay must be > 0");
  (match cfg.reorder with
   | None -> ()
   | Some (w, p, hold) ->
       check_window "reorder" w;
       check_prob "reorder" p;
       if not (Float.is_finite hold) || hold <= 0.0 then
         invalid_arg "Fault: reorder hold must be > 0");
  (match cfg.duplicate with
   | None -> ()
   | Some (w, p) -> check_window "duplicate" w; check_prob "duplicate" p)

let is_empty (cfg : config) =
  cfg.flaps = None && cfg.blackouts = [] && cfg.spike = None
  && cfg.reorder = None && cfg.duplicate = None

let in_window (w : window) now =
  now >= w.start
  && (if w.period > 0.0 then Float.rem (now -. w.start) w.period < w.length
      else now -. w.start < w.length)

(* Uniform in [mean*(1-jitter), mean*(1+jitter)]; > 0 by validation. *)
let sample_duration t mean jitter =
  mean *. (1.0 -. jitter +. 2.0 *. jitter *. Prng.float_unit t.rng)

let rec go_down t (f : flaps) =
  t.link_up <- false;
  t.s_transitions <- t.s_transitions + 1;
  let now = Engine.now t.engine in
  if Tm.is_on () then Tm.event "fault.link_down" ~time:now;
  let dt = sample_duration t f.down_mean f.flap_jitter in
  Engine.schedule_unit t.engine ~at:(now +. dt) (fun () -> go_up t f)

and go_up t (f : flaps) =
  t.link_up <- true;
  t.s_transitions <- t.s_transitions + 1;
  let now = Engine.now t.engine in
  let flushed = Queue.length t.parked_q in
  if Tm.is_on () then
    Tm.event "fault.link_up" ~time:now ~value:(float_of_int flushed);
  (* Re-offer parked packets in global FIFO order at the up instant. *)
  while not (Queue.is_empty t.parked_q) do
    let pkt, sink = Queue.pop t.parked_q in
    sink pkt
  done;
  let dt = sample_duration t f.up_mean f.flap_jitter in
  Engine.schedule_unit t.engine ~at:(now +. dt) (fun () -> go_down t f)

let create ~engine ~rng cfg =
  validate cfg;
  let live = not (is_empty cfg) in
  let t =
    { engine; rng; cfg; live; link_up = true; parked_q = Queue.create ();
      s_transitions = 0; s_down_drops = 0; s_parked = 0; s_spiked = 0;
      s_reordered = 0; s_duplicated = 0; s_blackout_drops = 0 }
  in
  List.iter
    (fun (key, get) -> Tm.Probe.add engine.Engine.probes key (fun () -> get t))
    probe_keys;
  (if live then
     match cfg.flaps with
     | None -> ()
     | Some f ->
         let at = Float.max (Engine.now engine) f.first_down in
         Engine.schedule_unit engine ~at (fun () -> go_down t f));
  t

let active t = t.live

(* Deliver one packet through the spike / reorder perturbations. *)
let emit t sink now (pkt : Packet.t) =
  let extra =
    match t.cfg.spike with
    | Some (w, d) when in_window w now ->
        t.s_spiked <- t.s_spiked + 1;
        d
    | _ -> 0.0
  in
  let extra =
    match t.cfg.reorder with
    | Some (w, p, hold) when in_window w now ->
        if Prng.float_unit t.rng < p then begin
          t.s_reordered <- t.s_reordered + 1;
          extra +. hold
        end
        else extra
    | _ -> extra
  in
  if extra > 0.0 then
    Engine.schedule_unit t.engine ~at:(now +. extra) (fun () -> sink pkt)
  else sink pkt

let forward t sink (pkt : Packet.t) =
  let now = Engine.now t.engine in
  if not t.link_up then begin
    match t.cfg.flaps with
    | Some { park = true; _ } ->
        t.s_parked <- t.s_parked + 1;
        Queue.add (pkt, sink) t.parked_q
    | _ ->
        t.s_down_drops <- t.s_down_drops + 1;
        if Tm.is_on () then
          Tm.event "fault.down_drop" ~time:now ~flow:pkt.flow
  end
  else begin
    (match t.cfg.duplicate with
     | Some (w, p) when in_window w now && Prng.float_unit t.rng < p ->
         t.s_duplicated <- t.s_duplicated + 1;
         emit t sink now (Packet.copy pkt)
     | _ -> ());
    emit t sink now pkt
  end

let wrap_forward t sink =
  if not t.live
     || (t.cfg.flaps = None && t.cfg.spike = None && t.cfg.reorder = None
         && t.cfg.duplicate = None)
  then sink
  else fun pkt -> forward t sink pkt

let wrap_feedback t sink =
  if not t.live || t.cfg.blackouts = [] then sink
  else fun (pkt : Packet.t) ->
    let now = Engine.now t.engine in
    if List.exists (fun w -> in_window w now) t.cfg.blackouts then begin
      t.s_blackout_drops <- t.s_blackout_drops + 1;
      if Tm.is_on () then
        Tm.event "fault.blackout_drop" ~time:now ~flow:pkt.flow
    end
    else sink pkt

let stats t =
  {
    transitions = t.s_transitions;
    down_drops = t.s_down_drops;
    parked = t.s_parked;
    spiked = t.s_spiked;
    reordered = t.s_reordered;
    duplicated = t.s_duplicated;
    blackout_drops = t.s_blackout_drops;
  }
