(* Tests for the hybrid packet/fluid layer: the resumable Ode.System
   stepper, the fluid background aggregate (convergence to its analytic
   equilibrium, sync determinism, quantum gating), and the flows1m
   hybrid bench (determinism at equal seeds; the fluid visibly couples
   against the same bench with no background). *)

module Ode = Ebrc.Ode
module Fluid = Ebrc.Fluid
module Flock = Ebrc.Flock

(* ------------------------- Ode.System ------------------------------ *)

(* dy/dt = -y, y(0) = 1: resumed integration in many small bursts must
   agree with one advance over the whole span and with exp(-t). *)
let test_system_resume_matches_oneshot () =
  let f _t y dy = Float.Array.set dy 0 (-.Float.Array.get y 0) in
  let y0 = Float.Array.make 1 1.0 in
  let sys = Ode.System.create ~f ~t0:0.0 ~y0 () in
  let t = ref 0.0 in
  while !t < 5.0 -. 1e-9 do
    t := Float.min 5.0 (!t +. 0.037);
    Ode.System.advance sys !t
  done;
  let resumed = Ode.System.value sys 0 in
  Alcotest.(check bool)
    "landed exactly on target" true
    (Ode.System.time sys = 5.0);
  let exact = exp (-5.0) in
  Alcotest.(check bool)
    (Printf.sprintf "resumed %.9g vs exact %.9g" resumed exact)
    true
    (Float.abs (resumed -. exact) /. exact < 1e-4);
  let oneshot = Ode.System.create ~f ~t0:0.0 ~y0 () in
  Ode.System.advance oneshot 5.0;
  Alcotest.(check bool)
    "resumed agrees with one advance" true
    (Float.abs (resumed -. Ode.System.value oneshot 0) /. exact < 1e-4)

(* dy/dt = y^2 from y(0) = 1 blows up at t = 1: the step size shrinks
   toward the singularity and the integration stalls there, so an
   advance to t = 2 runs out of steps instead of hanging. *)
let test_system_step_budget () =
  let f _t y dy =
    let v = Float.Array.get y 0 in
    Float.Array.set dy 0 (v *. v)
  in
  let sys = Ode.System.create ~f ~t0:0.0 ~y0:(Float.Array.make 1 1.0) () in
  match Ode.System.advance ~max_steps:500 sys 2.0 with
  | () -> Alcotest.fail "expected Step_limit_exceeded"
  | exception Ode.Step_limit_exceeded { t; y; steps; _ } ->
      Alcotest.(check int) "steps recorded" 500 steps;
      Alcotest.(check bool)
        (Printf.sprintf "stalled at the blow-up (t = %.9g, y = %g)" t y)
        true
        (Float.abs (t -. 1.0) < 1e-3 && y > 1e6)

(* A 2-D rotation (harmonic oscillator): energy is conserved, so the
   vector path of the stepper is exercised with a known invariant. *)
let test_system_oscillator_energy () =
  let f _t y dy =
    Float.Array.set dy 0 (Float.Array.get y 1);
    Float.Array.set dy 1 (-.Float.Array.get y 0)
  in
  let y0 = Float.Array.make 2 0.0 in
  Float.Array.set y0 0 1.0;
  let sys = Ode.System.create ~rtol:1e-8 ~atol:1e-10 ~f ~t0:0.0 ~y0 () in
  for k = 1 to 100 do
    Ode.System.advance sys (0.2 *. float_of_int k)
  done;
  let x = Ode.System.value sys 0 and v = Ode.System.value sys 1 in
  let energy = (x *. x) +. (v *. v) in
  Alcotest.(check bool)
    (Printf.sprintf "energy %.9g stays 1" energy)
    true
    (Float.abs (energy -. 1.0) < 1e-5);
  Alcotest.(check bool)
    "x tracks cos(20)" true
    (Float.abs (x -. cos 20.0) < 1e-5)

let test_system_past_target_rejected () =
  let f _t _y dy = Float.Array.set dy 0 1.0 in
  let sys =
    Ode.System.create ~f ~t0:0.0 ~y0:(Float.Array.make 1 0.0) ()
  in
  Ode.System.advance sys 1.0;
  Alcotest.check_raises "past target"
    (Invalid_argument "Ode.System.advance: target in the past")
    (fun () -> Ode.System.advance sys 0.5)

let test_system_set_invalidate () =
  (* dy/dt reads a mutable input; flipping it without invalidate would
     reuse the stale FSAL slope for the first stage. [set] on the state
     must also refresh. *)
  let gain = ref 1.0 in
  let f _t y dy = Float.Array.set dy 0 (!gain *. Float.Array.get y 0) in
  let sys =
    Ode.System.create ~f ~t0:0.0 ~y0:(Float.Array.make 1 1.0) ()
  in
  Ode.System.advance sys 1.0;
  gain := -1.0;
  Ode.System.invalidate sys;
  Ode.System.advance sys 2.0;
  (* exp(1) then exp(-1) back to 1. *)
  let y = Ode.System.value sys 0 in
  Alcotest.(check bool)
    (Printf.sprintf "grow then shrink returns to 1 (got %.9g)" y)
    true
    (Float.abs (y -. 1.0) < 1e-3);
  Ode.System.set sys 0 42.0;
  Alcotest.(check (float 0.0)) "set visible" 42.0 (Ode.System.value sys 0)

(* --------------------------- Fluid --------------------------------- *)

let test_cfg =
  Fluid.default ~flows:100 ~capacity_pps:12_500.0 ~base_rtt:0.05
    ~qmax:625.0 ()

let test_equilibrium_balances () =
  let eq = Fluid.equilibrium test_cfg in
  Alcotest.(check bool) "p in (0,1)" true (eq.Fluid.eq_p > 0.0 && eq.Fluid.eq_p < 1.0);
  (* The fixed point balances admitted demand against capacity. *)
  let demand =
    float_of_int test_cfg.Fluid.flows *. eq.Fluid.eq_w /. eq.Fluid.eq_rtt
    *. (1.0 -. eq.Fluid.eq_p)
  in
  Alcotest.(check bool)
    (Printf.sprintf "demand %.1f balances capacity %.1f" demand
       test_cfg.Fluid.capacity_pps)
    true
    (Float.abs (demand -. test_cfg.Fluid.capacity_pps)
     /. test_cfg.Fluid.capacity_pps
    < 1e-6);
  (* W* = sqrt(2/p): the AIMD fixed point. *)
  Alcotest.(check bool)
    "w = sqrt(2/p)" true
    (Float.abs (eq.Fluid.eq_w -. sqrt (2.0 /. eq.Fluid.eq_p)) < 1e-9)

let test_fluid_converges_to_equilibrium () =
  let fl = Fluid.create test_cfg in
  let t = ref 0.0 in
  while !t < 120.0 -. 1e-9 do
    t := !t +. 0.01;
    Fluid.sync fl ~now:!t
  done;
  let eq = Fluid.equilibrium test_cfg in
  let w = Fluid.window fl in
  Alcotest.(check bool)
    (Printf.sprintf "window %.3f near eq %.3f" w eq.Fluid.eq_w)
    true
    (Float.abs (w -. eq.Fluid.eq_w) /. eq.Fluid.eq_w < 0.25);
  let p = Fluid.drop_prob fl in
  Alcotest.(check bool)
    (Printf.sprintf "drop prob %.4f near eq %.4f" p eq.Fluid.eq_p)
    true
    (Float.abs (p -. eq.Fluid.eq_p) /. eq.Fluid.eq_p < 0.5);
  let st = Fluid.stats fl in
  Alcotest.(check bool) "advances counted" true (st.Fluid.advances > 0);
  Alcotest.(check bool)
    "ODE steps bounded (resumable stepper reuses its step size)"
    true
    (st.Fluid.ode.Ode.accepted < 200_000)

let test_fluid_sync_deterministic () =
  let run () =
    let fl = Fluid.create test_cfg in
    for k = 1 to 500 do
      Fluid.sync fl ~now:(0.0137 *. float_of_int k);
      if k mod 50 = 0 then Fluid.on_packet_arrival fl;
      if k mod 70 = 0 then Fluid.set_pkt_occupancy fl (k mod 11)
    done;
    (Fluid.window fl, Fluid.queue_pkts fl, Fluid.fg_rate fl)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical state" true (a = b)

let test_fluid_quantum_gating () =
  let fl = Fluid.create test_cfg in
  Fluid.sync fl ~now:0.5;
  let w = Fluid.window fl in
  let st = Fluid.stats fl in
  (* Sub-quantum nudges must not move the state. *)
  Fluid.sync fl ~now:0.5001;
  Fluid.sync fl ~now:0.5009;
  Alcotest.(check (float 0.0)) "state unchanged" w (Fluid.window fl);
  Alcotest.(check int)
    "no extra advances" st.Fluid.advances
    (Fluid.stats fl).Fluid.advances

let test_fluid_validates () =
  Alcotest.check_raises "flows >= 1"
    (Invalid_argument "Fluid: flows must be >= 1")
    (fun () ->
      ignore
        (Fluid.create
           (Fluid.default ~flows:0 ~capacity_pps:1.0 ~base_rtt:0.1
              ~qmax:10.0 ())))

(* ------------------------ flows1m bench ---------------------------- *)

let hybrid_args =
  (* Small enough for CI, large enough to exercise queue contention. *)
  fun () ->
    Flock.run_hybrid ~fg_flows:500 ~bg_flows:5_000 ~duration:2.0 ~seed:7 ()

let test_hybrid_deterministic () =
  let a = hybrid_args () and b = hybrid_args () in
  Alcotest.(check int)
    "fingerprints agree" a.Flock.fingerprint b.Flock.fingerprint;
  Alcotest.(check int) "events agree" a.Flock.events b.Flock.events;
  Alcotest.(check bool) "fluid stats present" true (a.Flock.fluid <> None);
  Alcotest.(check bool) "packets flowed" true (a.Flock.delivered > 0)

let test_hybrid_couples_when_on () =
  let on = hybrid_args () in
  let off =
    Flock.run_hybrid ~fg_flows:500 ~bg_flows:0 ~duration:2.0 ~seed:7 ()
  in
  Alcotest.(check bool) "fluid stats absent without background" true
    (off.Flock.fluid = None);
  (* The fluid holds queue share and capacity: the foreground must see
     a different (more contended) path when a background is present. *)
  Alcotest.(check bool)
    "coupling changes the foreground's fate" true
    (on.Flock.fingerprint <> off.Flock.fingerprint);
  Alcotest.(check bool)
    "background causes foreground drops" true
    (on.Flock.dropped >= off.Flock.dropped)

let test_flock_pool_backing () =
  let e = Ebrc.Engine.create () in
  let fl = Flock.create ~flows:100 ~seed:3 e in
  let pool = Flock.pool fl in
  Alcotest.(check int) "pool sized to flock" 100
    (Ebrc.Flow_pool.length pool);
  ignore (Ebrc.Engine.run ~until:5.0 e);
  (* Gaps live in the rate column and drive the schedule. *)
  let g = Float.Array.get pool.Ebrc.Flow_pool.rate 0 in
  Alcotest.(check bool) "gap in [0.8,1.2)" true (g >= 0.8 && g < 1.2);
  Alcotest.(check bool) "sequences advanced" true
    (pool.Ebrc.Flow_pool.seq.(0) > 0)

let () =
  Alcotest.run "fluid"
    [
      ( "ode-system",
        [
          Alcotest.test_case "resume matches one-shot" `Quick
            test_system_resume_matches_oneshot;
          Alcotest.test_case "oscillator energy" `Quick
            test_system_oscillator_energy;
          Alcotest.test_case "past target rejected" `Quick
            test_system_past_target_rejected;
          Alcotest.test_case "set/invalidate" `Quick
            test_system_set_invalidate;
          Alcotest.test_case "step budget" `Quick test_system_step_budget;
        ] );
      ( "fluid",
        [
          Alcotest.test_case "equilibrium balances" `Quick
            test_equilibrium_balances;
          Alcotest.test_case "converges to equilibrium" `Quick
            test_fluid_converges_to_equilibrium;
          Alcotest.test_case "sync deterministic" `Quick
            test_fluid_sync_deterministic;
          Alcotest.test_case "quantum gating" `Quick
            test_fluid_quantum_gating;
          Alcotest.test_case "config validation" `Quick test_fluid_validates;
        ] );
      ( "hybrid-bench",
        [
          Alcotest.test_case "deterministic at equal seeds" `Quick
            test_hybrid_deterministic;
          Alcotest.test_case "fluid couples when on" `Quick
            test_hybrid_couples_when_on;
          Alcotest.test_case "flock rides the flow pool" `Quick
            test_flock_pool_backing;
        ] );
    ]
