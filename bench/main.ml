(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   in quick (scaled-down) mode, printing the same rows/series the paper
   reports — set EBRC_BENCH_FULL=1 for the paper-scale sweeps and
   EBRC_JOBS=N to fan sweep points out over N domains (default: one per
   available core; the tables are identical either way).

   Part 2 runs Bechamel micro-benchmarks: one Test.make per figure (a
   representative kernel of that figure's computation) plus the
   component kernels and the ablation comparisons called out in
   DESIGN.md (DropTail vs RED).

   Part 3 measures the domain-pool speedup of `figure all`: every
   figure's work as one batch.

   Part 4 measures the multi-process sweep service (`ebrc serve` over
   exec'd workers): tasks/s serial vs 1 vs 2 workers, the fleet
   overhead ratio, warm-resume time, and the serial-vs-fleet store
   byte-identity gate.

   Everything — per-test ns/run, per-figure regeneration seconds, the
   speedup and service records — lands in BENCH_<UTC-date>.json. *)

open Bechamel
open Toolkit

let quick = Sys.getenv_opt "EBRC_BENCH_FULL" <> Some "1"

(* EBRC_BENCH_ONLY=sweep|serve|wheel|scale: a single measurement block,
   no JSON — for iterating on the pool, the fleet, the scheduler or the
   hybrid engine without a full bench run. Unset or empty runs the full
   bench. EBRC_JOBS=N sizes the domain pool (unset, empty or 0: one
   domain per core). Either knob malformed fails here, before anything
   is measured or written. *)
type only = Sweep | Serve | Wheel | Scale

let only, jobs =
  let parse = function
    | "sweep" -> Ok (Some Sweep)
    | "serve" -> Ok (Some Serve)
    | "wheel" -> Ok (Some Wheel)
    | "scale" -> Ok (Some Scale)
    | v -> Error (Printf.sprintf "expected sweep, serve, wheel or scale, got %S" v)
  in
  match
    let only = Ebrc_obs.Env.knob ~empty:None "EBRC_BENCH_ONLY" parse in
    let jobs = Ebrc_obs.Env.knob ~empty:0 "EBRC_JOBS" (Ebrc_obs.Env.int ~min:0) in
    ( Option.join only,
      match jobs with
      | Some n when n > 0 -> n
      | _ -> Domain.recommended_domain_count () )
  with
  | knobs -> knobs
  | exception Invalid_argument msg ->
      Printf.eprintf "bench: %s\n%!" msg;
      exit 124

(* ------------------------------------------------------------------ *)
(* Part 1: regenerate all figures/tables.                              *)
(* ------------------------------------------------------------------ *)

(* Each figure runs as a batch of its own, so its seconds are what
   `ebrc figure <id>` costs in a fresh process: nothing carries over
   from an earlier figure. *)
let regenerate_figures () =
  Printf.printf
    "#############################################################\n\
     # Regenerating all paper figures/tables (%s mode, %d jobs)\n\
     #############################################################\n\n"
    (if quick then "quick" else "FULL")
    jobs;
  List.map
    (fun (id, desc, _) ->
      Printf.printf "--- figure %s: %s ---\n%!" id desc;
      let t0 = Unix.gettimeofday () in
      let tables = Ebrc.Figures.run_one ~jobs ~quick id in
      List.iter Ebrc.Table.print tables;
      let seconds = Unix.gettimeofday () -. t0 in
      Printf.printf "(figure %s regenerated in %.1f s)\n\n%!" id seconds;
      (id, seconds))
    Ebrc.Figures.registry

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks.                                  *)
(* ------------------------------------------------------------------ *)

(* Component kernels. *)

let bench_formula_eval kind =
  let f = Ebrc.Formula.create ~rtt:0.1 kind in
  Staged.stage (fun () ->
      let acc = ref 0.0 in
      for i = 1 to 100 do
        acc := !acc +. Ebrc.Formula.eval f (float_of_int i /. 250.0)
      done;
      !acc)

let bench_estimator () =
  let e = Ebrc.Loss_interval.of_tfrc ~l:8 in
  Ebrc.Loss_interval.prime e 20.0;
  Staged.stage (fun () ->
      for i = 1 to 100 do
        Ebrc.Loss_interval.record e (10.0 +. float_of_int (i mod 20));
        ignore (Ebrc.Loss_interval.estimate e)
      done)

let bench_event_queue () =
  Staged.stage (fun () ->
      let q = Ebrc.Event_queue.create () in
      for i = 1 to 256 do
        Ebrc.Event_queue.push q ~time:(float_of_int ((i * 7919) mod 997)) i
      done;
      while not (Ebrc.Event_queue.is_empty q) do
        ignore (Ebrc.Event_queue.pop q)
      done)

let bench_red_offer () =
  let open Ebrc.Queue_discipline in
  let q =
    create ~service_rate:1000.0 ~capacity:200 (Red (default_red ~bdp:80.0))
  in
  let rng = Ebrc.Prng.create ~seed:1 in
  Staged.stage (fun () ->
      for _ = 1 to 100 do
        match offer q ~bytes:1000 ~now:0.0 ~u:(Ebrc.Prng.float_unit rng) with
        | Enqueue -> if occupancy q > 100 then departure q ~now:0.0
        | Drop -> ()
      done)

(* Figure kernels: a scaled-down unit of the per-figure computation. *)

let kernel_fig1 () =
  let fs = List.map Ebrc.Formula.create Ebrc.Formula.all_paper_kinds in
  Staged.stage (fun () ->
      List.iter
        (fun f ->
          for i = 2 to 100 do
            let x = float_of_int i /. 2.0 in
            ignore (Ebrc.Formula.g f x);
            ignore (Ebrc.Formula.h f x)
          done)
        fs)

let kernel_fig2 () =
  let f = Ebrc.Formula.create ~rtt:1.0 ~b:1.0 Ebrc.Formula.Pftk_standard in
  Staged.stage (fun () ->
      ignore
        (Ebrc.Convexity.deviation_ratio ~samples:2048 (Ebrc.Formula.g f)
           ~lo:3.25 ~hi:3.5))

let kernel_basic_control ~kind () =
  Staged.stage (fun () ->
      let rng = Ebrc.Prng.create ~seed:5 in
      let process =
        Ebrc.Loss_process.iid_shifted_exponential rng ~p:0.1 ~cv:0.9
      in
      let formula = Ebrc.Formula.create ~rtt:1.0 kind in
      let estimator = Ebrc.Loss_interval.of_tfrc ~l:8 in
      ignore
        (Ebrc.Basic_control.simulate ~formula ~estimator ~process ~cycles:2000
           ()))

let kernel_comprehensive () =
  Staged.stage (fun () ->
      let rng = Ebrc.Prng.create ~seed:5 in
      let process =
        Ebrc.Loss_process.iid_shifted_exponential rng ~p:0.1 ~cv:0.9
      in
      let formula =
        Ebrc.Formula.create ~rtt:1.0 Ebrc.Formula.Pftk_simplified
      in
      let estimator = Ebrc.Loss_interval.of_tfrc ~l:8 in
      ignore
        (Ebrc.Comprehensive_control.simulate ~formula ~estimator ~process
           ~cycles:500 ()))

let kernel_scenario ~queue () =
  Staged.stage (fun () ->
      let cfg =
        {
          Ebrc.Scenario.default_config with
          n_tfrc = 2;
          n_tcp = 2;
          queue;
          duration = 10.0;
          warmup = 2.0;
          seed = 9;
        }
      in
      ignore (Ebrc.Scenario.run cfg))

let kernel_audio () =
  Staged.stage (fun () ->
      ignore
        (Ebrc.Audio_scenario.run
           {
             Ebrc.Audio_scenario.default_config with
             duration = 60.0;
             warmup = 6.0;
           }))

let kernel_many_sources () =
  let cp =
    [|
      { Ebrc.Many_sources.p_i = 0.001; pi_i = 0.5 };
      { Ebrc.Many_sources.p_i = 0.01; pi_i = 0.3 };
      { Ebrc.Many_sources.p_i = 0.05; pi_i = 0.2 };
    |]
  in
  let formula = Ebrc.Formula.create ~rtt:0.05 Ebrc.Formula.Pftk_standard in
  let rates =
    Ebrc.Many_sources.responsive_profile cp ~formula_rate:(fun p ->
        Ebrc.Formula.eval formula p)
  in
  Staged.stage (fun () ->
      let rng = Ebrc.Prng.create ~seed:3 in
      ignore
        (Ebrc.Many_sources.monte_carlo rng cp ~rates ~mean_sojourn:100.0
           ~steps:5000))

let kernel_few_flows () =
  Staged.stage (fun () ->
      let params =
        { Ebrc.Few_flows.alpha = 1.0; beta = 0.5; capacity = 100.0 }
      in
      ignore (Ebrc.Few_flows.simulate_aimd ~cycles:200 params);
      ignore (Ebrc.Few_flows.simulate_ebrc ~cycles:200 params))

let tests =
  Test.make_grouped ~name:"ebrc"
    [
      Test.make_grouped ~name:"components"
        [
          Test.make ~name:"formula-eval-sqrt-x100"
            (bench_formula_eval Ebrc.Formula.Sqrt);
          Test.make ~name:"formula-eval-pftk-std-x100"
            (bench_formula_eval Ebrc.Formula.Pftk_standard);
          Test.make ~name:"formula-eval-pftk-simpl-x100"
            (bench_formula_eval Ebrc.Formula.Pftk_simplified);
          Test.make ~name:"estimator-record+estimate-x100" (bench_estimator ());
          Test.make ~name:"event-queue-256" (bench_event_queue ());
          Test.make ~name:"red-offer-x100" (bench_red_offer ());
        ];
      Test.make_grouped ~name:"figures"
        [
          Test.make ~name:"fig1-functionals" (kernel_fig1 ());
          Test.make ~name:"fig2-convex-closure" (kernel_fig2 ());
          Test.make ~name:"fig3-basic-sqrt"
            (kernel_basic_control ~kind:Ebrc.Formula.Sqrt ());
          Test.make ~name:"fig3-basic-pftk"
            (kernel_basic_control ~kind:Ebrc.Formula.Pftk_simplified ());
          Test.make ~name:"fig4-basic-cv-sweep"
            (kernel_basic_control ~kind:Ebrc.Formula.Pftk_simplified ());
          Test.make ~name:"fig5-red-bottleneck"
            (kernel_scenario
               ~queue:(Ebrc.Scenario.Red_auto { capacity = 0 })
               ());
          Test.make ~name:"fig6-audio-bernoulli" (kernel_audio ());
          Test.make ~name:"fig7-loss-rate-ordering"
            (kernel_scenario
               ~queue:(Ebrc.Scenario.Red_auto { capacity = 0 })
               ());
          Test.make ~name:"fig17-droptail"
            (kernel_scenario
               ~queue:(Ebrc.Scenario.Drop_tail { capacity = 64 })
               ());
          Test.make ~name:"c3-many-sources-mc" (kernel_many_sources ());
          Test.make ~name:"c4-few-flows" (kernel_few_flows ());
        ];
      Test.make_grouped ~name:"ablations"
        [
          Test.make ~name:"comprehensive-closed-form"
            (kernel_comprehensive ());
          Test.make ~name:"scenario-droptail"
            (kernel_scenario
               ~queue:(Ebrc.Scenario.Drop_tail { capacity = 100 })
               ());
          Test.make ~name:"scenario-red"
            (kernel_scenario
               ~queue:(Ebrc.Scenario.Red_auto { capacity = 0 })
               ());
        ];
    ]

(* Run the micro-benchmarks against both the monotonic clock and the
   minor-allocation counter, returning one (name, estimate) table per
   measure: an allocation change on a hot path shows up directly in
   minor words per run. *)
let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let clock = Instance.monotonic_clock in
  let minor = Instance.minor_allocated in
  (* A full second per (test, instance): the mid-size figure kernels
     (100 us - 1 ms) swing past bench-compare's 20% gate at shorter
     quotas on a busy machine; the longer OLS window settles them. *)
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg [ clock; minor ] tests in
  let per_instance instance =
    let tbl = Analyze.all ols instance raw in
    let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
    let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
    List.filter_map
      (fun (name, ols) ->
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> Some (name, est)
        | _ -> None)
      rows
  in
  (per_instance clock, per_instance minor)

let print_bench_results (ns_per_run, minor_per_run) =
  Printf.printf
    "#############################################################\n\
     # Bechamel micro-benchmarks (ns and minor words per run)\n\
     #############################################################\n\n";
  List.iter
    (fun (name, ns) ->
      let words =
        match List.assoc_opt name minor_per_run with
        | Some w -> Printf.sprintf "%14.0f mw/run" w
        | None -> ""
      in
      Printf.printf "  %-45s %12.0f ns/run %s\n" name ns words)
    ns_per_run

(* ------------------------------------------------------------------ *)
(* Telemetry ablation: recording on must stay within 10% of the silent *)
(* DropTail run (bench-compare reports the budget met or missed), and  *)
(* the enabled counter totals at a fixed seed are deterministic, so    *)
(* they double as a scientific drift detector for bench-compare.       *)
(* ------------------------------------------------------------------ *)

type telemetry_ab = {
  telem_off_ms : float;
  telem_on_ms : float;
  telem_counters : (string * int) list;  (* fixed-seed scenario totals *)
  telem_events : int;                    (* events emitted (incl. dropped) *)
}

(* ------------------------------------------------------------------ *)
(* Shared scenario config and timer for the two overhead ablations.    *)
(* ------------------------------------------------------------------ *)

let ab_droptail =
  {
    Ebrc.Scenario.default_config with
    n_tfrc = 2;
    n_tcp = 2;
    queue = Ebrc.Scenario.Drop_tail { capacity = 100 };
    duration = 10.0;
    warmup = 2.0;
    seed = 9;
  }

(* Best-of-[reps] wall ms of the silent run and of the run with [arm]
   switched on, the two alternating run by run: on a shared host,
   speed drifts over seconds, and timing one arm's block after the
   other's charged that drift to the overhead. [arm true] switches the
   measured arm on before its run, [arm false] off after it. Each arm
   runs once untimed first. *)
let ab_pair reps cfg ~arm =
  let time () =
    let t0 = Unix.gettimeofday () in
    ignore (Ebrc.Scenario.run cfg);
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  let off = ref infinity and on = ref infinity in
  for rep = 0 to reps do
    let t = time () in
    arm true;
    let t' = time () in
    arm false;
    if rep > 0 then begin
      off := Float.min !off t;
      on := Float.min !on t'
    end
  done;
  (!off, !on)

let measure_telemetry () =
  let telem_off_ms, telem_on_ms =
    ab_pair 5 ab_droptail ~arm:Ebrc.Telemetry.set_enabled
  in
  (* Deterministic totals: one fresh recording of the same seed. *)
  Ebrc.Telemetry.set_enabled true;
  Ebrc.Telemetry.reset ();
  ignore (Ebrc.Scenario.run ab_droptail);
  let telem_counters =
    List.filter_map
      (fun s ->
        if s.Ebrc.Telemetry.snap_kind = Ebrc.Telemetry.Counter && s.count > 0
        then Some (s.snap_name, s.count)
        else None)
      (Ebrc.Telemetry.snapshot ())
  in
  let telem_events =
    List.length (Ebrc.Telemetry.events ()) + Ebrc.Telemetry.events_dropped ()
  in
  Ebrc.Telemetry.set_enabled false;
  Ebrc.Telemetry.reset ();
  Printf.printf
    "#############################################################\n\
     # Telemetry ablation (DropTail scenario, best of 5, arms alternated)\n\
     #############################################################\n\n\
    \  disabled  %7.2f ms\n\
    \  enabled   %7.2f ms  (+%.1f%%, %d counters, %d events)\n\n"
    telem_off_ms telem_on_ms
    (100.0 *. ((telem_on_ms /. telem_off_ms) -. 1.0))
    (List.length telem_counters) telem_events;
  { telem_off_ms; telem_on_ms; telem_counters; telem_events }

(* ------------------------------------------------------------------ *)
(* Streaming-telemetry ablation: the delta stream must cost nothing    *)
(* when disabled, and when live it may only observe — the streamed     *)
(* run must serialize byte-identically to the silent one.              *)
(* ------------------------------------------------------------------ *)

type stream_ablation = {
  stream_off_ms : float;    (* telemetry off, stream off (baseline) *)
  stream_on_ms : float;     (* telemetry on, stream live, 1 s cadence *)
  stream_deltas : int;      (* delta records written by the timed arm *)
  stream_identical : bool;  (* streamed run == silent run, bytes *)
}

let measure_stream_ablation () =
  let module Stream = Ebrc.Telemetry_stream in
  (* Baseline arm: everything off — the configuration every
     non-observed run pays for, so bench/compare.ml holds it against
     the telemetry ablation's own disabled_ms (same config, same seed).
     Live arm: registry on, stream on, wall progress off (progress
     records are wall-dependent; the sim-time deltas are the product
     being priced here). *)
  let path = Filename.temp_file "ebrc_stream_ab" ".jsonl" in
  let arm on =
    if on then begin
      Ebrc.Telemetry.set_enabled true;
      Stream.enable ~path ~period_sim:1.0 ~period_wall:0.0
    end
    else begin
      Stream.disable ();
      Ebrc.Telemetry.set_enabled false;
      Ebrc.Telemetry.reset ()
    end
  in
  let stream_off_ms, stream_on_ms = ab_pair 5 ab_droptail ~arm in
  let off_bytes =
    Ebrc.Result_cache.serialize_result (Ebrc.Scenario.run ab_droptail)
  in
  arm true;
  let on_bytes =
    Fun.protect
      ~finally:(fun () -> arm false)
      (fun () ->
        Ebrc.Result_cache.serialize_result (Ebrc.Scenario.run ab_droptail))
  in
  let stream_deltas =
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         match Ebrc_obs.Json.head (input_line ic) with
         | Some ("delta", _) -> incr n
         | Some _ | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    !n
  in
  (try Sys.remove path with Sys_error _ -> ());
  let stream_identical = String.equal off_bytes on_bytes in
  Printf.printf
    "#############################################################\n\
     # Streaming-telemetry ablation (DropTail scenario, best of 5, arms alternated)\n\
     #############################################################\n\n\
    \  silent              %7.2f ms\n\
    \  streaming (1 s)     %7.2f ms  (+%.1f%%, %d delta records)\n\
    \  streamed == silent bytes: %b\n\n"
    stream_off_ms stream_on_ms
    (100.0 *. ((stream_on_ms /. stream_off_ms) -. 1.0))
    stream_deltas stream_identical;
  { stream_off_ms; stream_on_ms; stream_deltas; stream_identical }

(* ------------------------------------------------------------------ *)
(* 100k-flow scale point: scheduler cost with 10^5 pending events.     *)
(* ------------------------------------------------------------------ *)

type flows100k = {
  fl_flows : int;
  fl_events : int;
  fl_wheel_ns : float;     (* ns per packet tick *)
}

(* Scenario benches hold a few dozen pending events — heap depth ~5 —
   so they can't see the scheduler's asymptotic cost. The flock pins
   ~10^5 events in the pending set, where a binary heap pays ~17
   cache-missing sift levels per operation where the wheel stays O(1).
   Flock members are deliberately minimal (bump a sequence number,
   fold the dispatch fingerprint, reschedule) so ns/packet is
   scheduler cost, not protocol work. *)
let measure_flows100k () =
  let flows = 100_000 and duration = 10.0 and seed = 1 in
  let best = ref infinity in
  let events = ref 0 in
  for _ = 1 to 3 do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let s = Ebrc.Flock.run ~flows ~duration ~seed () in
    best := Float.min !best (Unix.gettimeofday () -. t0);
    events := s.Ebrc.Flock.events
  done;
  let fl_wheel_ns = !best *. 1e9 /. float !events in
  Printf.printf
    "#############################################################\n\
     # 100k-flow scale point (%d flows, %d events, best of 3)\n\
     #############################################################\n\n\
    \  wheel %7.1f ns/packet\n\n"
    flows !events fl_wheel_ns;
  { fl_flows = flows; fl_events = !events; fl_wheel_ns }

(* ------------------------------------------------------------------ *)
(* flows1m: the hybrid packet/fluid scale point.                       *)
(* ------------------------------------------------------------------ *)

type flows1m = {
  f1_fg : int;
  f1_bg : int;                (* fluid background flows *)
  f1_events : int;
  f1_ns_per_event : float;
  f1_ratio_vs_flows100k : float;
      (* hybrid ns/event over the packet-only flows100k wheel leg; the
         ISSUE target is <= 2x *)
  f1_fluid_advances : int;
  f1_identical : bool;        (* equal-seed reruns agree on fingerprint *)
}

(* 20k packet-level foreground flows through a DropTail bottleneck
   while the fluid carries the background aggregate — 200k flows in
   quick mode, the full 10^6 under EBRC_BENCH_FULL=1. The fluid's ODE
   cost is independent of bg_flows (two state variables either way),
   which is the whole point of the hybrid: the measured ns/event must
   stay within 2x of the packet-only flows100k scheduler bench. *)
let measure_flows1m (packet_only : flows100k) =
  let fg_flows = 20_000 and duration = 10.0 and seed = 1 in
  let bg_flows = if quick then 200_000 else 1_000_000 in
  let best = ref infinity in
  let last = ref None in
  let identical = ref true in
  for _ = 1 to 3 do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let (s : Ebrc.Flock.hybrid_stats) =
      Ebrc.Flock.run_hybrid ~fg_flows ~bg_flows ~duration ~seed ()
    in
    best := Float.min !best (Unix.gettimeofday () -. t0);
    (match !last with
    | Some (prev : Ebrc.Flock.hybrid_stats) ->
        identical :=
          !identical
          && prev.fingerprint = s.fingerprint
          && prev.events = s.events
    | None -> ());
    last := Some s
  done;
  let (s : Ebrc.Flock.hybrid_stats) = Option.get !last in
  let f1_ns_per_event = !best *. 1e9 /. float_of_int s.events in
  let f1_fluid_advances =
    match s.fluid with Some f -> f.Ebrc.Fluid.advances | None -> 0
  in
  let f1_ratio_vs_flows100k = f1_ns_per_event /. packet_only.fl_wheel_ns in
  Printf.printf
    "#############################################################\n\
     # flows1m hybrid scale point (%d fg + %d fluid bg, best of 3)\n\
     #############################################################\n\n\
    \  %7.1f ns/event (%d events, %d fluid advances)\n\
    \  vs flows100k wheel: %.2fx (target <= 2x %s)\n\
    \  equal-seed reruns bit-identical: %b\n\n"
    fg_flows bg_flows f1_ns_per_event s.events f1_fluid_advances
    f1_ratio_vs_flows100k
    (if f1_ratio_vs_flows100k <= 2.0 then "met" else "missed")
    !identical;
  { f1_fg = fg_flows; f1_bg = bg_flows; f1_events = s.events;
    f1_ns_per_event; f1_ratio_vs_flows100k; f1_fluid_advances;
    f1_identical = !identical }

(* ------------------------------------------------------------------ *)
(* Part 3: domain-pool speedup of the whole figure batch.              *)
(* ------------------------------------------------------------------ *)

type speedup = {
  figure : string;
  par_jobs : int;
  serial_seconds : float;     (* compute: no result store *)
  parallel_seconds : float;   (* compute: same sweep through the pool *)
  deterministic : bool;       (* tables byte-identical at 1 and N jobs *)
}

(* `figure all` is the end-to-end row: every runner's declared work
   runs as one deduplicated batch, so the speedup covers the whole
   suite rather than one grid. The shared pool is warmed (spawned and
   exercised) before any timing, runs alternate serial/parallel, and
   each mode reports its best of [reps].

   Both arms run with no result store, so they time simulation, never
   store lookups. The [deterministic] flag asserts the pool's
   contract: tables byte-identical at 1 and N jobs. *)
let measure_parallel_sweep () =
  let fig = "all" in
  let par_jobs = max 2 (min 4 jobs) in
  let reps = 5 in
  Printf.printf
    "#############################################################\n\
     # Parallel figure batch: figure %s at 1 vs %d jobs (best of %d)\n\
     #############################################################\n\n%!"
    fig par_jobs reps;
  let pool = Ebrc.Pool.shared ~domains:par_jobs () in
  ignore (Ebrc.Pool.init pool 64 (fun x -> x * x));
  let csv_of tables = String.concat "\n" (List.map Ebrc.Table.to_csv tables) in
  let time_run ~jobs =
    (* Settle the heap so earlier phases' garbage doesn't land its
       collection cost on one arm of the comparison. *)
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let tables = Ebrc.Figures.run_all ~jobs ~quick:true () in
    (Unix.gettimeofday () -. t0, csv_of tables)
  in
  (* Untimed warm-up of both paths. *)
  let _, serial_csv = time_run ~jobs:1 in
  let _, parallel_csv = time_run ~jobs:par_jobs in
  let deterministic = String.equal serial_csv parallel_csv in
  let serial_seconds = ref infinity and parallel_seconds = ref infinity in
  for _ = 1 to reps do
    let s, _ = time_run ~jobs:1 in
    serial_seconds := Float.min !serial_seconds s;
    let p, _ = time_run ~jobs:par_jobs in
    parallel_seconds := Float.min !parallel_seconds p
  done;
  let serial_seconds = !serial_seconds
  and parallel_seconds = !parallel_seconds in
  Printf.printf
    "  serial       %.2f s (compute, no store)\n\
    \  parallel     %.2f s (%d jobs)\n\
    \  speedup      %.2fx\n\
    \  deterministic: %b\n\n"
    serial_seconds parallel_seconds par_jobs
    (serial_seconds /. parallel_seconds)
    deterministic;
  { figure = fig; par_jobs; serial_seconds; parallel_seconds; deterministic }

(* ------------------------------------------------------------------ *)
(* Part 4: the multi-process sweep service (ebrc serve / worker).      *)
(* ------------------------------------------------------------------ *)

type sweep_service = {
  svc_tasks : int;
  svc_serial_seconds : float;    (* in-process run + store_to per task *)
  svc_worker1_seconds : float;   (* ebrc serve --workers 1, cold store *)
  svc_worker2_seconds : float;   (* ebrc serve --workers 2, cold store *)
  svc_warm_resume_seconds : float; (* re-serve over the populated store *)
  svc_store_identical : bool;    (* 2-worker store bytes == serial bytes *)
}

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* A store's identity is the multiset of (record name, record bytes):
   names are content digests, so equal fingerprints mean the same
   result set with byte-identical payloads. *)
let store_fingerprint dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> "<unreadable>"
  | entries ->
      let buf = Buffer.create 4096 in
      Array.to_list entries |> List.sort String.compare
      |> List.iter (fun e ->
             if Filename.check_suffix e ".json" then begin
               Buffer.add_string buf e;
               Buffer.add_char buf '\000';
               let ic = open_in_bin (Filename.concat dir e) in
               Fun.protect
                 ~finally:(fun () -> close_in_noerr ic)
                 (fun () ->
                   Buffer.add_string buf
                     (really_input_string ic (in_channel_length ic)));
               Buffer.add_char buf '\000'
             end);
      Buffer.contents buf

(* The service arms exec the real CLI: the bench process has live
   domains (the shared pool), so forking workers in-process is off the
   table — and exec'ing `ebrc serve` measures the product, not a
   stand-in. *)
let ebrc_binary () =
  let p =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin/ebrc_cli.exe"
  in
  if Sys.file_exists p then Some p else None

(* Each arm's time is its best of [svc_repeats] cold runs: the host's
   other tenants only ever add time. *)
let svc_repeats = 3

let measure_sweep_service () =
  (* Realistic task size: 60 simulated seconds is tens of ms of
     compute, so the fleet's detection latency and per-task overhead
     show against the serial arm rather than vanish under it. *)
  let tasks = 20 in
  let m = Ebrc_serve.Manifest.demo ~tasks ~duration:60.0 () in
  Printf.printf
    "#############################################################\n\
     # Sweep service: %d x 60 s tasks, serial vs 1 vs 2 workers\n\
     #############################################################\n\n%!"
    tasks;
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ebrc-bench-serve.%d" (Unix.getpid ()))
  in
  rm_rf root;
  Unix.mkdir root 0o755;
  Fun.protect ~finally:(fun () -> rm_rf root)
  @@ fun () ->
  let best f =
    let rec go n acc = if n = 0 then acc else go (n - 1) (Float.min acc (f n)) in
    go svc_repeats infinity
  in
  (* Serial reference arm: run + publish in-process, no queue. *)
  let serial_store n = Filename.concat root (Printf.sprintf "serial%d" n) in
  let svc_serial_seconds =
    best (fun n ->
        let dir = serial_store n in
        Unix.mkdir dir 0o755;
        let t0 = Unix.gettimeofday () in
        List.iter
          (fun cfg ->
            Ebrc.Result_cache.store_to ~dir cfg (Ebrc.Scenario.run cfg))
          m.Ebrc_serve.Manifest.tasks;
        Unix.gettimeofday () -. t0)
  in
  let rate s = float_of_int tasks /. s in
  match ebrc_binary () with
  | None ->
      Printf.printf
        "  serial    %.1f tasks/s\n\
        \  service arms skipped: bin/ebrc_cli.exe not found next to the \
         bench binary\n\n"
        (rate svc_serial_seconds);
      { svc_tasks = tasks; svc_serial_seconds; svc_worker1_seconds = nan;
        svc_worker2_seconds = nan; svc_warm_resume_seconds = nan;
        svc_store_identical = false }
  | Some ebrc ->
      let manifest_path = Filename.concat root "sweep.json" in
      Ebrc_serve.Manifest.save ~path:manifest_path m;
      let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
      let serve ~queue ~workers =
        let argv =
          [|
            ebrc; "serve"; manifest_path; "--queue"; queue; "--workers";
            string_of_int workers; "--quiet";
          |]
        in
        let t0 = Unix.gettimeofday () in
        let pid =
          Unix.create_process ebrc argv Unix.stdin devnull Unix.stderr
        in
        let _, status = Unix.waitpid [] pid in
        (match status with
        | Unix.WEXITED 0 -> ()
        | _ -> Printf.eprintf "bench: ebrc serve exited abnormally\n%!");
        Unix.gettimeofday () -. t0
      in
      let queue workers n =
        Filename.concat root (Printf.sprintf "q%d-%d" workers n)
      in
      let cold workers = best (fun n -> serve ~queue:(queue workers n) ~workers) in
      let svc_worker1_seconds = cold 1 in
      let svc_worker2_seconds = cold 2 in
      let q2 = queue 2 1 in
      let svc_warm_resume_seconds = serve ~queue:q2 ~workers:2 in
      Unix.close devnull;
      let svc_store_identical =
        String.equal
          (store_fingerprint (serial_store 1))
          (store_fingerprint (Filename.concat q2 "store"))
      in
      Printf.printf
        "  serial       %.1f tasks/s (in-process)\n\
        \  1 worker     %.1f tasks/s (overhead %.2fx serial)\n\
        \  2 workers    %.1f tasks/s\n\
        \  warm resume  %.4f s (%.0fx faster than 2-worker cold)\n\
        \  store identical to serial: %b\n\n"
        (rate svc_serial_seconds) (rate svc_worker1_seconds)
        (svc_worker1_seconds /. svc_serial_seconds)
        (rate svc_worker2_seconds) svc_warm_resume_seconds
        (svc_worker2_seconds /. svc_warm_resume_seconds)
        svc_store_identical;
      { svc_tasks = tasks; svc_serial_seconds; svc_worker1_seconds;
        svc_worker2_seconds; svc_warm_resume_seconds; svc_store_identical }

(* ------------------------------------------------------------------ *)
(* BENCH_<UTC-date>.json.                                              *)
(* ------------------------------------------------------------------ *)

let write_json ~figure_seconds ~microbench ~telem ~stream ~flows
    ~flows1m ~sweep ~service =
  let module J = Ebrc_obs.Json in
  let ns_per_run, minor_per_run = microbench in
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  let date =
    Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
  in
  (* Filename carries the UTC time so same-day runs coexist; ISO-8601
     timestamps keep lexicographic order = chronological order, which
     bench-compare relies on to find the newest two records. *)
  let path =
    Printf.sprintf "BENCH_%sT%02d%02d%02dZ.json" date tm.Unix.tm_hour
      tm.Unix.tm_min tm.Unix.tm_sec
  in
  let num f = J.Num f and int n = J.Int n and bool b = J.Bool b in
  let table f kvs = J.Obj (List.map (fun (k, v) -> (k, f v)) kvs) in
  let pct on off = num (100.0 *. ((on /. off) -. 1.0)) in
  let tasks_per_s s = num (float_of_int service.svc_tasks /. s) in
  let record =
    J.Obj
      [
        ("date", J.Str date);
        ("mode", J.Str (if quick then "quick" else "full"));
        ("jobs", int jobs);
        ("recommended_domains", int (Domain.recommended_domain_count ()));
        ("microbench_ns_per_run", table num ns_per_run);
        ("microbench_minor_words_per_run", table num minor_per_run);
        (* Analytic figures finish in well under a millisecond; a bare
           number would record a misleading ~0, so those carry an
           explicit skip reason (a string, which bench-compare
           recognizes and sets aside) rather than a null that reads
           like a missing measurement. *)
        ( "figure_regeneration_seconds",
          table
            (fun v ->
              if v < 0.0005 then J.Str "skipped: sub-ms analytic figure"
              else num v)
            figure_seconds );
        ( "telemetry_summary",
          J.Obj
            [
              ("disabled_ms", num telem.telem_off_ms);
              ("enabled_ms", num telem.telem_on_ms);
              ("overhead_pct", pct telem.telem_on_ms telem.telem_off_ms);
              ("events", int telem.telem_events);
              ("counters", table int telem.telem_counters);
            ] );
        ( "stream_ablation",
          J.Obj
            [
              ("scenario_off_ms", num stream.stream_off_ms);
              ("scenario_streaming_ms", num stream.stream_on_ms);
              ("overhead_pct", pct stream.stream_on_ms stream.stream_off_ms);
              ("delta_records", int stream.stream_deltas);
              ("bit_identical", bool stream.stream_identical);
            ] );
        ( "flows100k",
          J.Obj
            [
              ("flows", int flows.fl_flows);
              ("events", int flows.fl_events);
              ("wheel_ns_per_packet", num flows.fl_wheel_ns);
            ] );
        ( "flows1m",
          J.Obj
            [
              ("fg_flows", int flows1m.f1_fg);
              ("bg_flows", int flows1m.f1_bg);
              ("events", int flows1m.f1_events);
              ("ns_per_event", num flows1m.f1_ns_per_event);
              ("ratio_vs_flows100k", num flows1m.f1_ratio_vs_flows100k);
              ("fluid_advances", int flows1m.f1_fluid_advances);
              ("bit_identical", bool flows1m.f1_identical);
            ] );
        ( "parallel_figure_sweep",
          J.Obj
            [
              ("figure", J.Str sweep.figure);
              ("jobs", int sweep.par_jobs);
              ("serial_seconds", num sweep.serial_seconds);
              ("parallel_seconds", num sweep.parallel_seconds);
              ("speedup", num (sweep.serial_seconds /. sweep.parallel_seconds));
              ("deterministic", bool sweep.deterministic);
            ] );
        ( "sweep_service",
          J.Obj
            [
              ("tasks", int service.svc_tasks);
              ("serial_seconds", num service.svc_serial_seconds);
              ("worker1_seconds", num service.svc_worker1_seconds);
              ("worker2_seconds", num service.svc_worker2_seconds);
              ("serial_tasks_per_s", tasks_per_s service.svc_serial_seconds);
              ("worker1_tasks_per_s", tasks_per_s service.svc_worker1_seconds);
              ("worker2_tasks_per_s", tasks_per_s service.svc_worker2_seconds);
              ( "overhead_vs_serial",
                num (service.svc_worker1_seconds /. service.svc_serial_seconds)
              );
              ("warm_resume_seconds", num service.svc_warm_resume_seconds);
              ( "cold_over_warm",
                num
                  (service.svc_worker2_seconds
                 /. service.svc_warm_resume_seconds) );
              ("store_identical", bool service.svc_store_identical);
            ] );
      ]
  in
  let oc = open_out path in
  output_string oc (J.print record);
  output_char oc '\n';
  close_out oc;
  Printf.printf "bench record written to %s\n" path

let () =
  match only with
  | Some Sweep -> ignore (measure_parallel_sweep ())
  | Some Serve -> ignore (measure_sweep_service ())
  | Some Wheel -> ignore (measure_flows100k ())
  | Some Scale -> ignore (measure_flows1m (measure_flows100k ()))
  | None ->
    let figure_seconds = regenerate_figures () in
    (* Settle the heap so the microbenches don't inherit the
       regeneration phase's GC pressure. *)
    Gc.full_major ();
    let microbench = benchmark () in
    print_bench_results microbench;
    let telem = measure_telemetry () in
    let stream = measure_stream_ablation () in
    let flows = measure_flows100k () in
    let flows1m = measure_flows1m flows in
    let sweep = measure_parallel_sweep () in
    let service = measure_sweep_service () in
    write_json ~figure_seconds ~microbench ~telem ~stream ~flows
      ~flows1m ~sweep ~service;
    print_endline "\nbench: done."
