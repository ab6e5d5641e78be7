(* Fluid background aggregate for the hybrid packet/fluid bottleneck.

   The many-sources regime (10^4..10^6 background TCP flows through one
   bottleneck) is far beyond what the packet-level engine can simulate
   event by event; following the fluid-model line (Misra/Gong/Towsley;
   Vardoyan/Hollot/Towsley in PAPERS.md), the background aggregate is
   collapsed into a two-dimensional ODE

     dW/dt = 1/R(q)  -  p(q_tot) * W^2 / (2 R(q))       (AIMD window)
     dq/dt = N W / R(q) * (1 - p(q_tot))  -  (C - a_fg) (backlog)

   where W is the per-flow mean window (packets), q the fluid backlog
   (packets), N the flow count, C the bottleneck capacity (pkt/s),
   R(q) = base_rtt + q_tot / C the load-dependent round-trip time,
   a_fg the measured foreground packet arrival rate (pkt/s, an EWMA
   held piecewise-constant between syncs), and q_tot = q + (foreground
   packets queued). The drop profile p mirrors the queue discipline the
   packet path runs: a quadratic ramp over the top of the buffer for
   DropTail, the linear min_th/max_th/max_p ramp for RED.

   The system is integrated incrementally with the resumable
   Ode.System DOPRI5 stepper: each sync advances the fluid to the
   current sim time rounded down to a resolution quantum, so the
   advance schedule is a pure function of event times — no RNG is
   involved and hybrid runs are bit-reproducible. Coupling back to the
   packet path: the queue discipline adds the fluid backlog to its
   occupancy when deciding drops (Queue_discipline.offer_fluid), and
   the link scales foreground service capacity by the share the fluid
   is not using (Link.attach_fluid). A scenario without a background
   attaches nothing, so its packet path is structurally identical to a
   fluid-free build. *)

module Tm = Ebrc_telemetry.Telemetry
module Ode = Ebrc_numerics.Ode

let k_advances =
  Tm.Probe.counter ~help:"fluid background sync advances" "fluid.advances"

let k_steps = Tm.Probe.counter ~help:"fluid ODE accepted steps" "fluid.steps"

let k_queue =
  Tm.Probe.gauge ~help:"fluid background backlog (packets, rounded)"
    "fluid.queue"

type drop_profile =
  | Tail of { ramp : float }
      (* p rises quadratically from 0 at (1-ramp)*qmax to 1 at qmax:
         a smooth stand-in for DropTail's wall that the error-controlled
         stepper can integrate through. *)
  | Ramp of { min_th : float; max_th : float; max_p : float }
      (* RED's linear early-drop ramp on the instantaneous queue.
         Above max_th the packet queue forces every drop; here the
         forced wall is a continuous climb from max_p at max_th to 1
         at qmax — a discontinuous jump would put the ODE into a
         sliding mode the error-controlled stepper chatters on. *)

type config = {
  flows : int;           (* N, background flow count *)
  capacity_pps : float;  (* C, bottleneck capacity in packets/s *)
  base_rtt : float;      (* two-way propagation + fixed processing, s *)
  qmax : float;          (* shared buffer, packets *)
  profile : drop_profile;
  share_cap : float;     (* max capacity fraction the fluid may hold *)
  resolution : float;    (* sync quantum, s *)
  w_min : float;         (* window floor, packets *)
  rtol : float;
  atol : float;
}

(* Time constant of the foreground arrival-rate EWMA, s. *)
let rate_tau = 0.1

let default ?profile ?(share_cap = 0.95) ?(resolution = 1e-3) ~flows
    ~capacity_pps ~base_rtt ~qmax () =
  let profile =
    match profile with Some p -> p | None -> Tail { ramp = 0.25 }
  in
  {
    flows;
    capacity_pps;
    base_rtt;
    qmax;
    profile;
    share_cap;
    resolution;
    w_min = 1e-2;
    rtol = 1e-5;
    atol = 1e-7;
  }

let validate cfg =
  if cfg.flows < 1 then invalid_arg "Fluid: flows must be >= 1";
  if not (cfg.capacity_pps > 0.0) then
    invalid_arg "Fluid: capacity must be positive";
  if not (cfg.base_rtt > 0.0) then
    invalid_arg "Fluid: base_rtt must be positive";
  if not (cfg.qmax > 0.0) then invalid_arg "Fluid: qmax must be positive";
  if not (cfg.share_cap > 0.0 && cfg.share_cap <= 1.0) then
    invalid_arg "Fluid: share_cap not in (0,1]";
  if not (cfg.resolution > 0.0) then
    invalid_arg "Fluid: resolution must be positive";
  (match cfg.profile with
  | Tail { ramp } ->
      if not (ramp > 0.0 && ramp <= 1.0) then
        invalid_arg "Fluid: Tail ramp not in (0,1]"
  | Ramp { min_th; max_th; max_p } ->
      if not (0.0 <= min_th && min_th < max_th) then
        invalid_arg "Fluid: need 0 <= min_th < max_th";
      if not (max_p > 0.0 && max_p <= 1.0) then
        invalid_arg "Fluid: max_p not in (0,1]")

let drop_prob_at cfg qt =
  match cfg.profile with
  | Tail { ramp } ->
      let lo = (1.0 -. ramp) *. cfg.qmax in
      if qt <= lo then 0.0
      else
        let z = Float.min 1.0 ((qt -. lo) /. (ramp *. cfg.qmax)) in
        z *. z
  | Ramp { min_th; max_th; max_p } ->
      if qt <= min_th then 0.0
      else if qt < max_th then max_p *. (qt -. min_th) /. (max_th -. min_th)
      else if qt >= cfg.qmax || max_th >= cfg.qmax then 1.0
      else
        max_p
        +. ((1.0 -. max_p) *. (qt -. max_th) /. (cfg.qmax -. max_th))

type t = {
  cfg : config;
  sys : Ode.System.t;
  t0 : float;
  q_cap : float;            (* share_cap * qmax: fluid backlog ceiling *)
  inputs : floatarray;      (* [0] a_fg (pkt/s); [1] fg packets queued.
                               Read by the derivative closure; held
                               piecewise-constant between syncs. *)
  mutable synced_to : float;    (* last quantum boundary reached *)
  mutable arrivals : int;       (* fg arrivals since last sync *)
  mutable advances : int;
  mutable util_int : float;     (* integral of bg utilization over time *)
  mutable drop_int : float;     (* integral of p over time *)
}

let create ?(t0 = 0.0) cfg =
  validate cfg;
  let q_cap = cfg.share_cap *. cfg.qmax in
  let inputs = Float.Array.make 2 0.0 in
  let n = float_of_int cfg.flows in
  let f _t y dy =
    let w = Float.max cfg.w_min (Float.Array.unsafe_get y 0) in
    let q =
      Float.min q_cap (Float.max 0.0 (Float.Array.unsafe_get y 1))
    in
    let a_fg = Float.Array.unsafe_get inputs 0 in
    let qt = q +. Float.Array.unsafe_get inputs 1 in
    let r = cfg.base_rtt +. (qt /. cfg.capacity_pps) in
    let p = drop_prob_at cfg qt in
    let x = n *. w /. r in
    let dw = (1.0 /. r) -. (p *. w *. w /. (2.0 *. r)) in
    (* Background drains whatever capacity the foreground leaves. *)
    let svc =
      Float.max 0.0 (cfg.capacity_pps -. Float.min a_fg cfg.capacity_pps)
    in
    let dq_raw = (x *. (1.0 -. p)) -. svc in
    (* Reflect at the physical boundaries so the state cannot leave
       [0, q_cap] x [w_min, inf) between clamps. *)
    let dq =
      if q <= 0.0 && dq_raw < 0.0 then 0.0
      else if q >= q_cap && dq_raw > 0.0 then 0.0
      else dq_raw
    in
    let dw = if w <= cfg.w_min && dw < 0.0 then 0.0 else dw in
    Float.Array.unsafe_set dy 0 dw;
    Float.Array.unsafe_set dy 1 dq
  in
  let y0 = Float.Array.make 2 0.0 in
  Float.Array.set y0 0 1.0 (* initial window: one packet, TCP-style *);
  Float.Array.set y0 1 0.0;
  let sys =
    Ode.System.create ~rtol:cfg.rtol ~atol:cfg.atol ~f ~t0 ~y0 ()
  in
  {
    cfg;
    sys;
    t0;
    q_cap;
    inputs;
    synced_to = t0;
    arrivals = 0;
    advances = 0;
    util_int = 0.0;
    drop_int = 0.0;
  }

let config t = t.cfg
let window t = Ode.System.value t.sys 0

let queue_pkts t =
  Float.min t.q_cap (Float.max 0.0 (Ode.System.value t.sys 1))

let fg_rate t = Float.Array.get t.inputs 0

let rtt t =
  t.cfg.base_rtt
  +. ((queue_pkts t +. Float.Array.get t.inputs 1) /. t.cfg.capacity_pps)

let drop_prob t =
  drop_prob_at t.cfg (queue_pkts t +. Float.Array.get t.inputs 1)

(* Instantaneous fraction of the bottleneck the background consumes:
   when backlogged it is work-conserving on the residual capacity,
   otherwise it uses its admitted arrival rate. Capped by share_cap so
   the foreground always retains a service floor. *)
let util t =
  let cfg = t.cfg in
  let q = queue_pkts t in
  let u =
    if q > 1e-9 then
      Float.max 0.0 (cfg.capacity_pps -. Float.min (fg_rate t) cfg.capacity_pps)
      /. cfg.capacity_pps
    else begin
      let w = Float.max cfg.w_min (window t) in
      let x = float_of_int cfg.flows *. w /. rtt t in
      x *. (1.0 -. drop_prob t) /. cfg.capacity_pps
    end
  in
  Float.min cfg.share_cap u

(* Foreground service share: what the fluid leaves behind, floored at
   (1 - share_cap) so packet service times stay finite. *)
let fg_share t = Float.max (1.0 -. t.cfg.share_cap) (1.0 -. util t)

let on_packet_arrival t = t.arrivals <- t.arrivals + 1

let set_pkt_occupancy t n =
  Float.Array.set t.inputs 1 (float_of_int n)

(* Advance the fluid to [now] rounded down to the resolution quantum.
   The target is a pure function of [now], and the EWMA update depends
   only on the arrival count and elapsed span — fully deterministic. *)
let sync t ~now =
  let cfg = t.cfg in
  let target = Float.floor (now /. cfg.resolution) *. cfg.resolution in
  if target > t.synced_to then begin
    let dt = target -. t.synced_to in
    let inst = float_of_int t.arrivals /. dt in
    let alpha = Float.min 1.0 (dt /. rate_tau) in
    let a_fg = Float.Array.get t.inputs 0 in
    Float.Array.set t.inputs 0 (a_fg +. (alpha *. (inst -. a_fg)));
    t.arrivals <- 0;
    (* Inputs changed: the cached FSAL slope is stale. *)
    Ode.System.invalidate t.sys;
    Ode.System.advance t.sys target;
    (* Clamp the state back into its physical range; [set] only
       invalidates when a bound was actually crossed. *)
    let w = Ode.System.value t.sys 0 in
    if w < cfg.w_min then Ode.System.set t.sys 0 cfg.w_min;
    let q = Ode.System.value t.sys 1 in
    if q < 0.0 then Ode.System.set t.sys 1 0.0
    else if q > t.q_cap then Ode.System.set t.sys 1 t.q_cap;
    t.util_int <- t.util_int +. (util t *. dt);
    t.drop_int <- t.drop_int +. (drop_prob t *. dt);
    t.advances <- t.advances + 1;
    t.synced_to <- target
  end

let add_probes t set =
  Tm.Probe.add set k_advances (fun () -> t.advances);
  Tm.Probe.add set k_steps (fun () ->
      (Ode.System.stats t.sys).Ode.accepted);
  Tm.Probe.add set k_queue (fun () -> Float.to_int (Float.round (queue_pkts t)))

type stats = {
  advances : int;
  ode : Ode.stats;
  w : float;
  q : float;
  a_fg : float;
  mean_util : float;
  mean_drop : float;
}

let stats t =
  let ode = Ode.System.stats t.sys in
  let span = t.synced_to -. t.t0 in
  {
    advances = t.advances;
    ode;
    w = window t;
    q = queue_pkts t;
    a_fg = fg_rate t;
    mean_util = (if span > 0.0 then t.util_int /. span else 0.0);
    mean_drop = (if span > 0.0 then t.drop_int /. span else 0.0);
  }

(* ------------------------- equilibrium ----------------------------- *)

(* Fixed point of the fluid with no foreground traffic:
   dW = 0 gives W* = sqrt(2/p); dq = 0 (backlogged) gives
   N W*/R(q(p)) (1 - p) = C, with q(p) the drop profile's
   inverse. The left side is strictly decreasing in p (window shrinks,
   survival shrinks, RTT grows), so the root is found by bisection.
   This is the analytic limit the Many_sources end-to-end test
   compares the simulated large-N loss-event rate against. *)

type equilibrium = {
  eq_p : float;      (* drop probability *)
  eq_w : float;      (* per-flow window, packets *)
  eq_rtt : float;    (* round-trip time, s *)
}

let queue_at_drop cfg p =
  match cfg.profile with
  | Tail { ramp } ->
      let lo = (1.0 -. ramp) *. cfg.qmax in
      lo +. (ramp *. cfg.qmax *. sqrt (Float.min 1.0 p))
  | Ramp { min_th; max_th; max_p } ->
      if p <= max_p then min_th +. (p /. max_p *. (max_th -. min_th))
      else if max_th >= cfg.qmax then max_th
      else
        max_th +. ((p -. max_p) /. (1.0 -. max_p) *. (cfg.qmax -. max_th))

let equilibrium cfg =
  validate cfg;
  let c_eff = Float.max 1e-9 cfg.capacity_pps in
  let n = float_of_int cfg.flows in
  let excess p =
    let q = queue_at_drop cfg p in
    let r = cfg.base_rtt +. (q /. cfg.capacity_pps) in
    (n *. sqrt (2.0 /. p) /. r *. (1.0 -. p)) -. c_eff
  in
  let lo = ref 1e-12 and hi = ref (1.0 -. 1e-12) in
  (* excess(lo) -> +inf; if even p ~ 1 leaves demand above capacity the
     fixed point sits at the wall. *)
  if excess !hi > 0.0 then lo := !hi
  else
    for _ = 1 to 200 do
      let mid = 0.5 *. (!lo +. !hi) in
      if excess mid > 0.0 then lo := mid else hi := mid
    done;
  let p = 0.5 *. (!lo +. !hi) in
  let q = queue_at_drop cfg p in
  let r = cfg.base_rtt +. (q /. cfg.capacity_pps) in
  { eq_p = p; eq_w = sqrt (2.0 /. p); eq_rtt = r }
