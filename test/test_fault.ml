(* Tests for the deterministic fault-injection layer: config
   validation, inert empty configs, bit-reproducible fault
   schedules (traces and fault.* telemetry), the nofeedback-halving-
   under-blackout regression, flap drop-vs-park accounting, and
   crash-isolated replication sweeps at -j1 vs -j4. *)

module Fault = Ebrc.Fault
module Scenario = Ebrc.Scenario
module Result_cache = Ebrc.Result_cache
module Pool = Ebrc.Pool
module Tm = Ebrc.Telemetry

(* ---------------------- config validation ----------------------- *)

let mk_injector cfg =
  let engine = Ebrc.Engine.create () in
  let rng = Ebrc.Prng.create ~seed:1 in
  Fault.create ~engine ~rng cfg

let test_validation () =
  let rejects what cfg =
    let raised = try ignore (mk_injector cfg) ; false
                 with Invalid_argument _ -> true in
    Alcotest.(check bool) what true raised
  in
  let flaps = { Fault.first_down = 1.0; down_mean = 1.0; up_mean = 5.0;
                flap_jitter = 0.2; park = false } in
  rejects "jitter >= 1"
    { Fault.none with flaps = Some { flaps with flap_jitter = 1.0 } };
  rejects "non-positive down mean"
    { Fault.none with flaps = Some { flaps with down_mean = 0.0 } };
  rejects "period < length"
    { Fault.none with
      blackouts = [ { Fault.start = 0.0; length = 5.0; period = 2.0 } ] };
  rejects "probability > 1"
    { Fault.none with
      duplicate = Some ({ Fault.start = 0.0; length = 1.0; period = 0.0 }, 1.5) };
  rejects "negative spike delay"
    { Fault.none with
      spike = Some ({ Fault.start = 0.0; length = 1.0; period = 0.0 }, -0.1) }

let test_inert_paths () =
  (* A none-config injector is inert and wrapping is the identity. *)
  let inj = mk_injector Fault.none in
  Alcotest.(check bool) "none config inert" false (Fault.active inj);
  let sink _ = () in
  Alcotest.(check bool) "wrap_forward is identity" true
    (Fault.wrap_forward inj sink == sink);
  Alcotest.(check bool) "wrap_feedback is identity" true
    (Fault.wrap_feedback inj sink == sink)

(* ----------------- bit-reproducible schedules ------------------- *)

let test_chaos_rerun_identical () =
  let cfg = Scenario.robust_chaos_config in
  let a = Result_cache.serialize_result (Scenario.run cfg) in
  let b = Result_cache.serialize_result (Scenario.run cfg) in
  Alcotest.(check string) "robust-chaos rerun is byte-identical" a b

let fault_counter_snapshot () =
  List.filter_map
    (fun (s : Tm.snapshot) ->
      let n = s.Tm.snap_name in
      if String.length n > 6 && String.sub n 0 6 = "fault." then
        Some (n, s.Tm.count)
      else None)
    (Tm.snapshot ())

let test_telemetry_counters_identical () =
  (* Same seed, two runs: every fault.* counter must land on exactly
     the same value (and be non-trivial for the blackout preset). *)
  let cfg = Scenario.robust_blackout_config in
  let counters_of_run () =
    Tm.set_enabled true;
    Tm.reset ();
    Fun.protect
      ~finally:(fun () -> Tm.set_enabled false)
      (fun () ->
        ignore (Scenario.run cfg);
        fault_counter_snapshot ())
  in
  let a = counters_of_run () in
  let b = counters_of_run () in
  Alcotest.(check (list (pair string int)))
    "fault.* counters identical across reruns" a b;
  let drops =
    try List.assoc "fault.blackout_drops" a with Not_found -> 0
  in
  Alcotest.(check bool) "blackout drops recorded" true (drops > 0)

(* --------------- nofeedback halvings under blackout -------------- *)

let test_blackout_drives_halvings () =
  let cfg = Scenario.robust_blackout_config in
  let faulted = Scenario.run cfg in
  let clean = Scenario.run { cfg with Scenario.faults = None } in
  Alcotest.(check bool) "halvings fire during blackouts" true
    (faulted.Scenario.tfrc_halvings > 0);
  Alcotest.(check bool) "blackouts raise the halving count" true
    (faulted.Scenario.tfrc_halvings > clean.Scenario.tfrc_halvings);
  (match faulted.Scenario.fault_stats with
  | None -> Alcotest.fail "faulted run must report fault stats"
  | Some s ->
      Alcotest.(check bool) "feedback packets dropped" true
        (s.Fault.blackout_drops > 0));
  Alcotest.(check bool) "clean run has no fault stats" true
    (clean.Scenario.fault_stats = None)

(* ----------------------- inert config --------------------------- *)

let test_disabled_matches_fault_free () =
  (* A config whose faults are all switched off ([Some Fault.none])
     builds an inert injector, so the run is bit-identical to one that
     never configured faults at all. *)
  let cfg = Scenario.robust_blackout_config in
  let clean =
    Result_cache.serialize_result
      (Scenario.run { cfg with Scenario.faults = None })
  in
  let disabled =
    Result_cache.serialize_result
      (Scenario.run { cfg with Scenario.faults = Some Fault.none })
  in
  Alcotest.(check string) "disabled run == fault-free run" clean disabled

(* ---------------------- flap accounting ------------------------- *)

let test_flaps_drop_vs_park () =
  let cfg = Scenario.robust_flaps_config in
  let dropping = Scenario.run cfg in
  (match dropping.Scenario.fault_stats with
  | None -> Alcotest.fail "flap run must report fault stats"
  | Some s ->
      Alcotest.(check bool) "link flapped" true (s.Fault.transitions >= 2);
      Alcotest.(check bool) "down packets dropped" true (s.Fault.down_drops > 0);
      Alcotest.(check int) "nothing parked in drop mode" 0 s.Fault.parked);
  let park_cfg =
    match cfg.Scenario.faults with
    | Some fc ->
        { cfg with
          Scenario.faults =
            Some
              { fc with
                Fault.flaps =
                  Option.map
                    (fun f -> { f with Fault.park = true })
                    fc.Fault.flaps } }
    | None -> assert false
  in
  let parking = Scenario.run park_cfg in
  match parking.Scenario.fault_stats with
  | None -> Alcotest.fail "park run must report fault stats"
  | Some s ->
      Alcotest.(check bool) "down packets parked" true (s.Fault.parked > 0);
      Alcotest.(check int) "nothing dropped in park mode" 0 s.Fault.down_drops

let test_chaos_episode_counters () =
  let r = Scenario.run Scenario.robust_chaos_config in
  match r.Scenario.fault_stats with
  | None -> Alcotest.fail "chaos run must report fault stats"
  | Some s ->
      Alcotest.(check bool) "spikes applied" true (s.Fault.spiked > 0);
      Alcotest.(check bool) "packets reordered" true (s.Fault.reordered > 0);
      Alcotest.(check bool) "packets duplicated" true (s.Fault.duplicated > 0);
      Alcotest.(check bool) "link flapped" true (s.Fault.transitions >= 2)

(* -------------- crash-isolated replication sweeps ---------------- *)

let test_replication_sweep_jobs_invariant () =
  (* A seed sweep over a faulted scenario through the crash-isolated
     pool entry point: byte-identical results at -j1 and -j4. *)
  let base =
    { Scenario.robust_blackout_config with
      Scenario.duration = 60.0;
      warmup = 15.0 }
  in
  let sweep jobs =
    Pool.with_pool ~domains:jobs (fun pool ->
        Pool.try_init pool 4 (fun i ->
            Result_cache.serialize_result
              (Scenario.run { base with Scenario.seed = 500 + i }))
        |> Array.map (function
             | Ok s -> s
             | Error _ -> Alcotest.fail "replication crashed"))
  in
  Alcotest.(check (array string))
    "faulted sweep identical at -j1 and -j4" (sweep 1) (sweep 4)

(* ------------------------ other scenarios ------------------------ *)

let test_chain_smoke () =
  let flaps =
    Some { Fault.first_down = 10.0; down_mean = 0.5; up_mean = 6.0;
           flap_jitter = 0.3; park = false }
  in
  let cfg =
    { Scenario.chain_config with
      Scenario.duration = 60.0;
      warmup = 15.0;
      faults = Some { Fault.none with Fault.flaps } }
  in
  let a = Scenario.run cfg in
  let b = Scenario.run cfg in
  Alcotest.(check bool) "chain under flaps still delivers" true
    (Scenario.mean_throughput a.Scenario.tfrc > 0.0);
  Alcotest.(check bool) "chain rerun identical" true (a = b)

let test_audio_smoke () =
  let cfg =
    { Ebrc.Audio_scenario.default_config with
      Ebrc.Audio_scenario.duration = 300.0;
      warmup = 50.0;
      faults =
        Some
          { Fault.none with
            Fault.spike =
              Some ({ Fault.start = 80.0; length = 10.0; period = 60.0 }, 0.03) } }
  in
  let a = Ebrc.Audio_scenario.run cfg in
  let b = Ebrc.Audio_scenario.run cfg in
  Alcotest.(check bool) "audio under spikes still delivers" true
    (a.Ebrc.Audio_scenario.packets > 0);
  Alcotest.(check bool) "audio rerun identical" true (a = b)

let () =
  Alcotest.run "fault"
    [
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "inert paths" `Quick test_inert_paths;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "chaos rerun bit-identical" `Quick
            test_chaos_rerun_identical;
          Alcotest.test_case "fault.* counters identical" `Quick
            test_telemetry_counters_identical;
          Alcotest.test_case "replication sweep -j1 vs -j4" `Slow
            test_replication_sweep_jobs_invariant;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "blackout drives nofeedback halvings" `Quick
            test_blackout_drives_halvings;
          Alcotest.test_case "disabled == fault-free" `Quick
            test_disabled_matches_fault_free;
          Alcotest.test_case "flaps: drop vs park" `Quick
            test_flaps_drop_vs_park;
          Alcotest.test_case "chaos episode counters" `Quick
            test_chaos_episode_counters;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "chain smoke" `Quick test_chain_smoke;
          Alcotest.test_case "audio smoke" `Quick test_audio_smoke;
        ] );
    ]
