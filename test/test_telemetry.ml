(* Tests for the telemetry layer: gating, metric and probe semantics,
   totals independent of domain partitioning (the -j determinism
   contract), the fixed-seed counter pins, bounded event rings, and the
   JSONL / Chrome-trace export schemas. *)

module Tm = Ebrc.Telemetry
module Export = Ebrc.Telemetry_export
module Pool = Ebrc.Pool

(* Every test leaves telemetry disabled and zeroed so suites compose. *)
let scrub () =
  Tm.set_enabled false;
  Tm.reset ()

let with_telemetry_on f =
  scrub ();
  Tm.set_enabled true;
  Fun.protect ~finally:scrub f

(* ------------------------------------------------------------------ *)
(* Gating and metric basics.                                           *)
(* ------------------------------------------------------------------ *)

(* Observations are gated; counts are kept by their owners either way
   (see "counter"). *)
let test_disabled_records_nothing () =
  scrub ();
  let probes = Tm.Probe.create () in
  Tm.Probe.add probes (Tm.Probe.gauge "test.gate.gauge") (fun () -> 3);
  let h = Tm.Histogram.make "test.gate.histogram" in
  Tm.Probe.absorb probes;
  Tm.Histogram.observe h 1.5;
  Tm.event "test.gate.event" ~time:1.0;
  let r = Tm.with_span "test.gate.span" (fun () -> 42) in
  Alcotest.(check int) "span passes result through" 42 r;
  Alcotest.(check int) "gauge untouched" 0
    (List.find (fun s -> s.Tm.snap_name = "test.gate.gauge") (Tm.snapshot ()))
      .Tm.count;
  Alcotest.(check int) "histogram untouched" 0 (Tm.Histogram.count h);
  Alcotest.(check int) "no events" 0 (List.length (Tm.events ()));
  Alcotest.(check int) "no spans" 0 (List.length (Tm.spans ()))

let snap name = List.find (fun s -> s.Tm.snap_name = name) (Tm.snapshot ())

let check_no_range msg (s : Tm.snapshot) =
  Alcotest.(check bool) (msg ^ ": min and max are nan") true
    (Float.is_nan s.Tm.min_v && Float.is_nan s.Tm.max_v)

let test_counter_basics () =
  with_telemetry_on @@ fun () ->
  let c = Tm.Probe.count ~help:"h" "test.counter.basics" in
  Atomic.incr c;
  ignore (Atomic.fetch_and_add c 41);
  let s = snap "test.counter.basics" in
  Alcotest.(check int) "value" 42 s.Tm.count;
  Alcotest.(check bool) "kind and help" true
    (s.Tm.snap_kind = Tm.Counter && s.Tm.snap_help = "h");
  check_no_range "counter" s;
  (* find-or-create: the same atomic through a second registration *)
  let c' = Tm.Probe.count "test.counter.basics" in
  Atomic.incr c';
  Alcotest.(check int) "shared registration" 43 (Atomic.get c);
  (* Owners keep counting while recording is off. *)
  Tm.set_enabled false;
  Atomic.incr c;
  Alcotest.(check int) "kept while off" 44 (snap "test.counter.basics").Tm.count

let test_gauge_extremes () =
  with_telemetry_on @@ fun () ->
  let level = ref 0 in
  let probes = Tm.Probe.create () in
  Tm.Probe.add probes (Tm.Probe.gauge "test.gauge.extremes") (fun () -> !level);
  List.iter
    (fun l ->
      level := l;
      Tm.Probe.absorb probes)
    [ 5; -2; 17; 3 ];
  let s =
    List.find (fun s -> s.Tm.snap_name = "test.gauge.extremes") (Tm.snapshot ())
  in
  Alcotest.(check int) "samples" 4 s.Tm.count;
  Alcotest.(check (float 0.0)) "max" 17.0 s.Tm.max_v;
  Alcotest.(check (float 0.0)) "min" (-2.0) s.Tm.min_v

let test_histogram_buckets () =
  with_telemetry_on @@ fun () ->
  let h = Tm.Histogram.make "test.histogram.buckets" in
  List.iter (Tm.Histogram.observe h) [ 0.3; 1.5; 1.9; 6.0 ];
  Alcotest.(check int) "count" 4 (Tm.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 9.7 (Tm.Histogram.sum h);
  let snap =
    List.find
      (fun s -> s.Tm.snap_name = "test.histogram.buckets")
      (Tm.snapshot ())
  in
  let total =
    Array.fold_left (fun acc (_, n) -> acc + n) 0 snap.Tm.buckets
  in
  Alcotest.(check int) "bucket mass = count" 4 total;
  (* 1.5 and 1.9 share the [1,2) bucket. *)
  Alcotest.(check bool) "coalesced bucket" true
    (Array.exists (fun (lo, n) -> lo = 1.0 && n = 2) snap.Tm.buckets)

(* Quantile estimation over the log2 buckets: the estimate interpolates
   inside the crossing bucket, so exact values are checkable by hand. *)
let test_quantile_of_buckets () =
  let b = [| (1.0, 2); (2.0, 2) |] in
  Alcotest.(check (float 1e-9)) "median" 2.0 (Tm.quantile_of_buckets b 0.5);
  Alcotest.(check (float 1e-9)) "p75" 3.0 (Tm.quantile_of_buckets b 0.75);
  Alcotest.(check (float 1e-9)) "p100 = top of last bucket" 4.0
    (Tm.quantile_of_buckets b 1.0);
  Alcotest.(check (float 1e-9)) "q clamps below" 1.0
    (Tm.quantile_of_buckets b (-1.0));
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Tm.quantile_of_buckets [||] 0.5))

let test_histogram_quantile () =
  with_telemetry_on @@ fun () ->
  let h = Tm.Histogram.make "test.histogram.quantile" in
  List.iter (Tm.Histogram.observe h) [ 1.5; 1.9 ];
  (* Both samples share the [1,2) bucket. *)
  Alcotest.(check (float 1e-9)) "median interpolates" 1.5
    (Tm.Histogram.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p100" 2.0 (Tm.Histogram.quantile h 1.0);
  let empty = Tm.Histogram.make "test.histogram.quantile.empty" in
  Alcotest.(check bool) "no samples is nan" true
    (Float.is_nan (Tm.Histogram.quantile empty 0.5))

(* Probes: a set sums the getters of one key, a view reads them by
   name order into a caller array, and each absorb adds a counter's
   growth once and records a gauge's level as one sample. *)
let test_probe_totals () =
  with_telemetry_on @@ fun () ->
  let c = Tm.Probe.counter "test.probe.counter" in
  let g = Tm.Probe.gauge "test.probe.gauge" in
  let set = Tm.Probe.create () in
  let a = ref 3 and b = ref 2 and level = ref 7 in
  Tm.Probe.add set g (fun () -> !level);
  Tm.Probe.add set c (fun () -> !a);
  Tm.Probe.add set c (fun () -> !b);
  let v = Tm.Probe.view set in
  Alcotest.(check (list string)) "names sorted, keys grouped"
    [ "test.probe.counter"; "test.probe.gauge" ]
    (List.init (Tm.Probe.size v) (Tm.Probe.name v));
  Alcotest.(check bool) "kinds" true
    (Tm.Probe.kind v 0 = Tm.Counter && Tm.Probe.kind v 1 = Tm.Gauge);
  let out = Array.make 2 0 in
  Tm.Probe.read v out;
  Alcotest.(check (array int)) "read sums a key's getters" [| 5; 7 |] out;
  Tm.Probe.absorb set;
  a := 10;
  level := 4;
  Tm.Probe.absorb set;
  Alcotest.(check int) "counter total = final value" 12
    (snap "test.probe.counter").Tm.count;
  check_no_range "absorbed counter" (snap "test.probe.counter");
  let gs = snap "test.probe.gauge" in
  Alcotest.(check int) "one level per absorb" 2 gs.Tm.count;
  Alcotest.(check (float 0.0)) "gauge max" 7.0 gs.Tm.max_v;
  Alcotest.(check (float 0.0)) "gauge min" 4.0 gs.Tm.min_v;
  (* A probe added between absorbs joins without re-counting the
     growth already absorbed. *)
  let d = ref 1 in
  Tm.Probe.add set c (fun () -> !d);
  Tm.Probe.absorb set;
  Alcotest.(check int) "late probe adds only its own count" 13
    (snap "test.probe.counter").Tm.count;
  Tm.set_enabled false;
  a := 100;
  Tm.Probe.absorb set;
  Alcotest.(check int) "absorb is a no-op when off" 13
    (snap "test.probe.counter").Tm.count

let test_kind_clash_rejected () =
  scrub ();
  ignore (Tm.Probe.count "test.clash.name");
  match Tm.Probe.gauge "test.clash.name" with
  | _ -> Alcotest.fail "expected Invalid_argument on kind clash"
  | exception Invalid_argument _ -> ()

let test_reset_zeroes () =
  with_telemetry_on @@ fun () ->
  let c = Tm.Probe.count "test.reset.counter" in
  ignore (Atomic.fetch_and_add c 7);
  Tm.event "test.reset.event" ~time:0.0;
  ignore (Tm.with_span "test.reset.span" Fun.id);
  Tm.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Atomic.get c);
  Alcotest.(check int) "snapshot zeroed" 0 (snap "test.reset.counter").Tm.count;
  Alcotest.(check int) "events cleared" 0 (List.length (Tm.events ()));
  Alcotest.(check int) "spans cleared" 0 (List.length (Tm.spans ()));
  Alcotest.(check int) "dropped cleared" 0 (Tm.events_dropped ())

(* ------------------------------------------------------------------ *)
(* Bounded event ring.                                                 *)
(* ------------------------------------------------------------------ *)

let test_event_ring_bounded () =
  with_telemetry_on @@ fun () ->
  Tm.set_event_capacity 16;
  Fun.protect ~finally:(fun () -> Tm.set_event_capacity 65536)
  @@ fun () ->
  for i = 0 to 99 do
    Tm.event "test.ring" ~time:(float_of_int i) ~value:(float_of_int i)
  done;
  let retained = Tm.events () in
  Alcotest.(check int) "ring capped" 16 (List.length retained);
  Alcotest.(check int) "dropped counted" 84 (Tm.events_dropped ());
  (* Overwrite-oldest: the survivors are the newest events. *)
  List.iter
    (fun (e : Tm.event) ->
      Alcotest.(check bool) "newest retained" true (e.time >= 84.0))
    retained

let test_event_fields () =
  with_telemetry_on @@ fun () ->
  Tm.event "test.fields" ~time:2.5 ~flow:7 ~value:3.0;
  match Tm.events () with
  | [ e ] ->
      Alcotest.(check string) "kind" "test.fields" e.Tm.ev;
      Alcotest.(check (float 0.0)) "time" 2.5 e.Tm.time;
      Alcotest.(check int) "flow" 7 e.Tm.flow;
      Alcotest.(check (float 0.0)) "value" 3.0 e.Tm.value
  | es -> Alcotest.failf "expected 1 event, got %d" (List.length es)

(* ------------------------------------------------------------------ *)
(* Totals must not depend on domain partitioning. (The group keeps its *)
(* "shard_merge" name for test-id continuity.)                          *)
(* ------------------------------------------------------------------ *)

let record_tasks_under ~domains =
  with_telemetry_on @@ fun () ->
  let c = Tm.Probe.count "test.merge.counter" in
  let h = Tm.Histogram.make "test.merge.histogram" in
  Pool.with_pool ~domains (fun pool ->
      ignore
        (Pool.init pool 64 (fun i ->
             ignore (Atomic.fetch_and_add c 3);
             Tm.Histogram.observe h (float_of_int ((i mod 7) + 1));
             i)));
  let cs = snap "test.merge.counter" and hs = snap "test.merge.histogram" in
  (cs.Tm.count, hs.Tm.count, hs.Tm.sum, Array.to_list hs.Tm.buckets)

let test_shard_merge_deterministic () =
  let t1 = record_tasks_under ~domains:1 in
  let t4 = record_tasks_under ~domains:4 in
  let c1, n1, s1, b1 = t1 and c4, n4, s4, b4 = t4 in
  Alcotest.(check int) "counter total 1 = expected" (3 * 64) c1;
  Alcotest.(check int) "counter total j1 = j4" c1 c4;
  Alcotest.(check int) "histogram count j1 = j4" n1 n4;
  Alcotest.(check (float 0.0)) "histogram sum j1 = j4" s1 s4;
  Alcotest.(check bool) "histogram buckets j1 = j4" true (b1 = b4)

(* The full-stack version of the same contract: a simulator-heavy
   sweep (each point a packet-level scenario run) recorded under 1 and
   4 domains must produce bit-identical sim/net/protocol counters.
   Pool-internal counters (pool.*, chunk timings) legitimately depend
   on the schedule and are excluded. *)
let scenario_counters ~domains =
  with_telemetry_on @@ fun () ->
  let run_point i =
    let cfg =
      {
        Ebrc.Scenario.default_config with
        n_tfrc = 1;
        n_tcp = 1;
        queue = Ebrc.Scenario.Drop_tail { capacity = 50 };
        duration = 2.0;
        warmup = 0.5;
        seed = 100 + i;
      }
    in
    ignore (Ebrc.Scenario.run cfg)
  in
  Pool.with_pool ~domains (fun pool ->
      ignore (Pool.init pool 4 (fun i -> run_point i; i)));
  List.filter_map
    (fun s ->
      if
        s.Tm.snap_kind = Tm.Counter
        && not (String.length s.Tm.snap_name >= 5
                && String.sub s.Tm.snap_name 0 5 = "pool.")
      then Some (s.Tm.snap_name, s.Tm.count)
      else None)
    (Tm.snapshot ())

let test_scenario_counters_j1_vs_j4 () =
  let t1 = scenario_counters ~domains:1 in
  let t4 = scenario_counters ~domains:4 in
  Alcotest.(check bool) "some counters recorded" true
    (List.exists (fun (_, v) -> v > 0) t1);
  List.iter2
    (fun (n1, v1) (n4, v4) ->
      Alcotest.(check string) "same counter set" n1 n4;
      Alcotest.(check int) (n1 ^ " identical across -j") v1 v4)
    t1 t4

(* Every counter of the bench's fixed-seed telemetry record, pinned to
   its value there (telemetry_summary of the newest BENCH record):
   the seed-9 DropTail run's non-zero sim/net/protocol counters. A
   probe lost or double-registered changes a value or drops a name;
   bench-compare alone would skip a name missing from one record.
   [wheel.pushed] counts only what the timing wheel holds: the link's
   service and delivery events ride engine lanes and are not in it. *)
let seed9_counters =
  [
    ("link.delivered", 10999); ("link.drops", 762); ("queue.drops", 762);
    ("queue.enqueues", 11039); ("sim.events_discarded", 28);
    ("sim.events_fired", 30130); ("sim.events_scheduled", 38666);
    ("tcp.cwnd_halvings", 6); ("tcp.fast_retransmits", 3);
    ("tcp.timeouts", 3); ("tfrc.feedbacks", 365); ("tfrc.loss_events", 10);
    ("tfrc.rate_changes", 257); ("tfrc.wali_updates", 8);
    ("wheel.pushed", 8433); ("wheel.rotations", 158);
  ]

let test_seed9_counters_pinned () =
  let sim =
    with_telemetry_on @@ fun () ->
    ignore
      (Ebrc.Scenario.run
         {
           Ebrc.Scenario.default_config with
           n_tfrc = 2;
           n_tcp = 2;
           queue = Ebrc.Scenario.Drop_tail { capacity = 100 };
           duration = 10.0;
           warmup = 2.0;
           seed = 9;
         });
    List.filter_map
      (fun s ->
        if s.Tm.snap_kind = Tm.Counter && s.Tm.count > 0 then
          Some (s.Tm.snap_name, s.Tm.count)
        else None)
      (Tm.snapshot ())
  in
  Alcotest.(check (list (pair string int))) "seed-9 scenario counters"
    seed9_counters sim

(* ------------------------------------------------------------------ *)
(* Fleet and harness counter pins.                                     *)
(* ------------------------------------------------------------------ *)

(* Fixed in-process fleet activity, each count pinned by name: the
   pool, the task queue, the chaos shim, the result store and a worker
   drain. Each module's typed tally must equal its telemetry names,
   and every name must read 0 after [Tm.reset]. [pool.steals] depends
   on the schedule and is left out. *)
module Rc = Ebrc.Result_cache
module Chaos = Ebrc_chaos.Io_fault
module Task_queue = Ebrc_serve.Task_queue
module Worker = Ebrc_serve.Worker

let fleet_names =
  [
    "cache.bytes_read"; "cache.bytes_written"; "cache.corrupt";
    "cache.disk_hits"; "cache.misses"; "cache.store_errors";
    "cache.stores"; "cache.tmp_reclaimed"; "chaos.clock_skews"; "chaos.eio";
    "chaos.enospc"; "chaos.fsync_lost"; "chaos.torn_writes"; "pool.chunks";
    "pool.jobs"; "pool.task_failures"; "pool.task_retries"; "pool.tasks";
    "pool.tasks_submitted"; "scrub.checked"; "scrub.ok"; "scrub.quarantined";
    "task_queue.claim_conflicts"; "task_queue.claims";
    "task_queue.completed"; "task_queue.failed";
    "task_queue.leases_reclaimed"; "task_queue.poisoned";
    "worker.publish_failed"; "worker.publish_retries"; "worker.tasks_cached";
    "worker.tasks_failed"; "worker.tasks_ran";
  ]

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* The fleet names under [prefixes] (all by default), as name/value
   pairs in name order. *)
let fleet_counters ?(prefixes = [ "" ]) () =
  List.filter_map
    (fun s ->
      if
        s.Tm.snap_kind = Tm.Counter
        && List.mem s.Tm.snap_name fleet_names
        && List.exists (fun p -> has_prefix p s.Tm.snap_name) prefixes
      then Some (s.Tm.snap_name, s.Tm.count)
      else None)
    (Tm.snapshot ())

let check_counters msg expected ?prefixes () =
  Alcotest.(check (list (pair string int))) msg expected
    (fleet_counters ?prefixes ())

let fleet_dir =
  let n = ref 0 in
  fun name ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ebrc-test-telemetry-%d-%s-%d" (Unix.getpid ()) name !n)
    in
    Unix.mkdir d 0o755;
    d

let file_size path = (Unix.stat path).Unix.st_size

let test_fleet_pool () =
  let pool_counters domains =
    with_telemetry_on @@ fun () ->
    Pool.with_pool ~domains (fun pool ->
        ignore (Pool.init pool 6 Fun.id);
        ignore
          (Pool.try_init ~retries:1 pool 3 (fun i ->
               if i = 1 then failwith "fleet pin" else i)));
    fleet_counters ~prefixes:[ "pool." ] ()
  in
  let pins chunks =
    [
      ("pool.chunks", chunks); ("pool.jobs", 2); ("pool.task_failures", 1);
      ("pool.task_retries", 1); ("pool.tasks", 9);
      ("pool.tasks_submitted", 9);
    ]
  in
  (* One domain runs each job inline as one chunk; two domains grab
     one index per chunk. *)
  Alcotest.(check (list (pair string int))) "pool, 1 domain" (pins 2)
    (pool_counters 1);
  Alcotest.(check (list (pair string int))) "pool, 2 domains" (pins 9)
    (pool_counters 2)

let test_fleet_task_queue () =
  with_telemetry_on @@ fun () ->
  let q = Task_queue.create ~dir:(fleet_dir "queue") () in
  List.iter
    (fun d -> Task_queue.enqueue q ~digest:d ~spec:"{}")
    [ "d1"; "d2"; "d3" ];
  let claim worker ttl digest = Task_queue.claim q ~worker ~ttl ~digest in
  let outcome =
    Alcotest.testable
      (fun ppf o ->
        Format.pp_print_string ppf
          (match o with
          | Task_queue.Claimed -> "Claimed"
          | Busy -> "Busy"
          | Gone -> "Gone"))
      ( = )
  in
  Alcotest.check outcome "claim" Task_queue.Claimed (claim "w1" 60.0 "d1");
  Alcotest.check outcome "conflict" Task_queue.Busy (claim "w2" 60.0 "d1");
  Alcotest.check outcome "expired claim" Task_queue.Claimed
    (claim "w1" (-1.0) "d2");
  Alcotest.check outcome "reclaim" Task_queue.Claimed (claim "w2" 60.0 "d2");
  Task_queue.complete q ~digest:"d1";
  Task_queue.fail q ~worker:"w2" ~digest:"d2" ~message:"fleet pin";
  Task_queue.poison q ~digest:"d3" ~message:"fleet pin";
  Alcotest.check outcome "gone" Task_queue.Gone (claim "w1" 60.0 "d1");
  check_counters "queue" ~prefixes:[ "task_queue." ]
    [
      ("task_queue.claim_conflicts", 1); ("task_queue.claims", 3);
      ("task_queue.completed", 1); ("task_queue.failed", 1);
      ("task_queue.leases_reclaimed", 1); ("task_queue.poisoned", 1);
    ]
    ()

let test_fleet_chaos () =
  with_telemetry_on @@ fun () ->
  Chaos.set_seed (Some 42);
  Fun.protect ~finally:(fun () -> Chaos.set_seed None) @@ fun () ->
  let path = Filename.concat (fleet_dir "chaos") "f" in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  let faulty f = try f () with Sys_error _ -> () in
  for _ = 1 to 200 do
    faulty (fun () -> Chaos.guard_open path);
    faulty (fun () -> Chaos.guard_rename path);
    faulty (fun () -> Chaos.write oc "0123456789abcdef");
    ignore (Chaos.maim "0123456789");
    Chaos.fsync oc;
    ignore (Chaos.now ())
  done;
  check_counters "chaos" ~prefixes:[ "chaos." ]
    [
      ("chaos.clock_skews", 21); ("chaos.eio", 21); ("chaos.enospc", 5);
      ("chaos.fsync_lost", 54); ("chaos.torn_writes", 31);
    ]
    ();
  let s = Chaos.stats () in
  check_counters "Io_fault.stats = chaos.*" ~prefixes:[ "chaos." ]
    [
      ("chaos.clock_skews", s.Chaos.clock_skews); ("chaos.eio", s.Chaos.eio);
      ("chaos.enospc", s.Chaos.enospc); ("chaos.fsync_lost", s.Chaos.fsync_lost);
      ("chaos.torn_writes", s.Chaos.torn_writes);
    ]
    ()

let fleet_config seed =
  {
    Ebrc.Scenario.default_config with
    n_tfrc = 1;
    n_tcp = 1;
    with_probe = false;
    queue = Ebrc.Scenario.Drop_tail { capacity = 25 };
    bottleneck_bps = 5e6;
    duration = 2.0;
    warmup = 0.4;
    seed;
  }

let check_cache_stats () =
  let s = Rc.stats () in
  check_counters "Result_cache.stats = cache.*" ~prefixes:[ "cache." ]
    [
      ("cache.bytes_read", List.assoc "cache.bytes_read" (fleet_counters ()));
      ("cache.bytes_written",
       List.assoc "cache.bytes_written" (fleet_counters ()));
      ("cache.corrupt", s.Rc.corrupt); ("cache.disk_hits", s.Rc.disk_hits);
      ("cache.misses", s.Rc.misses);
      ("cache.store_errors", s.Rc.store_errors); ("cache.stores", s.Rc.stores);
      ("cache.tmp_reclaimed",
       List.assoc "cache.tmp_reclaimed" (fleet_counters ()));
    ]
    ()

let test_fleet_result_cache () =
  with_telemetry_on @@ fun () ->
  let dir = fleet_dir "store" in
  let cfg1 = fleet_config 3 and cfg2 = fleet_config 4 in
  let record cfg = Filename.concat dir (Rc.digest_of_config cfg ^ ".json") in
  Rc.store_to ~dir cfg1 (Ebrc.Scenario.run cfg1);
  Rc.store_to ~dir cfg2 (Ebrc.Scenario.run cfg2);
  let written = file_size (record cfg1) + file_size (record cfg2) in
  Alcotest.(check bool) "record loads" true (Rc.load_from ~dir cfg1 <> None);
  (* Truncate the second record: its load is corrupt, scrub
     quarantines it. *)
  let torn = 40 in
  Unix.truncate (record cfg2) torn;
  Alcotest.(check bool) "torn record rejected" true
    (Rc.load_from ~dir cfg2 = None);
  let read = file_size (record cfg1) + torn in
  let tmp name age =
    let p = Filename.concat dir name in
    let oc = open_out p in
    output_string oc "x";
    close_out oc;
    let t = Unix.gettimeofday () -. age in
    Unix.utimes p t t
  in
  tmp ".stale.1.tmp" 7200.0;
  tmp ".fresh.2.tmp" 0.0;
  let reclaimed = Rc.gc_tmp dir in
  Alcotest.(check int) "one stale tmp reclaimed" 1 reclaimed;
  let rep = Rc.scrub ~dir () in
  check_counters "store" ~prefixes:[ "cache."; "scrub." ]
    [
      ("cache.bytes_read", read); ("cache.bytes_written", written);
      ("cache.corrupt", 1); ("cache.disk_hits", 0);
      ("cache.misses", 0); ("cache.store_errors", 0); ("cache.stores", 2);
      ("cache.tmp_reclaimed", 1); ("scrub.checked", 2); ("scrub.ok", 1);
      ("scrub.quarantined", 1);
    ]
    ();
  check_cache_stats ();
  Alcotest.(check int) "gc_tmp = cache.tmp_reclaimed" reclaimed
    (List.assoc "cache.tmp_reclaimed" (fleet_counters ()));
  check_counters "scrub_report = scrub.*" ~prefixes:[ "scrub." ]
    [
      ("scrub.checked", rep.Rc.scrub_checked); ("scrub.ok", rep.Rc.scrub_ok);
      ("scrub.quarantined", List.length rep.Rc.scrub_quarantined);
    ]
    ()

let test_fleet_worker () =
  with_telemetry_on @@ fun () ->
  let root = fleet_dir "worker" in
  let qdir = Filename.concat root "queue" and store = Filename.concat root "store" in
  let q = Task_queue.create ~dir:qdir () in
  let cfg1 = fleet_config 5 and cfg2 = fleet_config 6 in
  List.iter
    (fun cfg ->
      Task_queue.enqueue q ~digest:(Rc.digest_of_config cfg)
        ~spec:(Ebrc.Codec.encode cfg))
    [ cfg1; cfg2 ];
  Task_queue.enqueue q ~digest:"nonsense" ~spec:"{\"not\":\"a config\"}";
  (* cfg1 is already published: the worker completes it from the store. *)
  Rc.store_to ~dir:store cfg1 (Ebrc.Scenario.run cfg1);
  let rec1 = file_size (Filename.concat store (Rc.digest_of_config cfg1 ^ ".json")) in
  let o =
    Worker.run { (Worker.default ~queue_dir:qdir) with Worker.store_dir = store }
  in
  let rec2 = file_size (Filename.concat store (Rc.digest_of_config cfg2 ^ ".json")) in
  Alcotest.(check (list string)) "queue drained" [] (Task_queue.pending q);
  check_counters "worker drain"
    [
      ("cache.bytes_read", rec1 + rec2); ("cache.bytes_written", rec1 + rec2);
      ("cache.corrupt", 0); ("cache.disk_hits", 0);
      ("cache.misses", 0); ("cache.store_errors", 0); ("cache.stores", 2);
      ("cache.tmp_reclaimed", 0); ("chaos.clock_skews", 0); ("chaos.eio", 0);
      ("chaos.enospc", 0); ("chaos.fsync_lost", 0); ("chaos.torn_writes", 0);
      ("pool.chunks", 1); ("pool.jobs", 1); ("pool.task_failures", 0);
      ("pool.task_retries", 0); ("pool.tasks", 1); ("pool.tasks_submitted", 1);
      ("scrub.checked", 0); ("scrub.ok", 0); ("scrub.quarantined", 0);
      ("task_queue.claim_conflicts", 0); ("task_queue.claims", 3);
      ("task_queue.completed", 2); ("task_queue.failed", 1);
      ("task_queue.leases_reclaimed", 0); ("task_queue.poisoned", 0);
      ("worker.publish_failed", 0); ("worker.publish_retries", 0);
      ("worker.tasks_cached", 1); ("worker.tasks_failed", 1);
      ("worker.tasks_ran", 1);
    ]
    ();
  check_cache_stats ();
  check_counters "Worker.outcome = worker.*"
    ~prefixes:[ "worker.tasks_" ]
    [
      ("worker.tasks_cached", o.Worker.cached);
      ("worker.tasks_failed", o.Worker.failed);
      ("worker.tasks_ran", o.Worker.ran);
    ]
    ();
  Tm.reset ();
  List.iter
    (fun (name, v) -> Alcotest.(check int) (name ^ " zeroed by reset") 0 v)
    (fleet_counters ())

(* ------------------------------------------------------------------ *)
(* Export schemas.                                                     *)
(* ------------------------------------------------------------------ *)

(* Exported files are validated as JSON, not just greppable text. *)
module J = Ebrc_obs.Json

let parse s =
  match J.parse s with Ok j -> j | Error e -> Alcotest.failf "bad JSON: %s" e

let member = J.member

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* A name every string escape applies to, and floats whose shortest
   round-trip form differs from a fixed-precision one. *)
let awkward = "q\"b\\n\n\001\195\169"
let awkward_floats = [ 0.1; 1.0 /. 3.0; nan; 1e300 ]

let populate () =
  let c = Tm.Probe.count "test.export.counter" in
  let h = Tm.Histogram.make "test.export.histogram" in
  ignore (Atomic.fetch_and_add c 5);
  Tm.Histogram.observe h 2.0;
  Tm.event "test.export.event" ~time:1.5 ~flow:3 ~value:9.0;
  ignore (Tm.with_span ~cat:"test" "test.export.span" Fun.id);
  Atomic.incr (Tm.Probe.count ~help:awkward ("test.export." ^ awkward));
  let h' = Tm.Histogram.make ("test.export.hist." ^ awkward) in
  List.iter (Tm.Histogram.observe h') [ 0.1; 1.0 /. 3.0; 1e300 ];
  List.iter
    (fun v ->
      Tm.event ("test.export." ^ awkward) ~time:v ~value:v)
    awkward_floats;
  ignore (Tm.with_span ~cat:awkward ("test.export." ^ awkward) Fun.id)

(* Every writer's output is in the printer's canonical form. *)
let canonical line =
  Alcotest.(check string) "print (parse line) = line" line
    (J.print (parse line))

let test_jsonl_schema () =
  with_telemetry_on @@ fun () ->
  populate ();
  let path = Filename.temp_file "ebrc_telemetry" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path)
  @@ fun () ->
  Export.write_jsonl ~path ();
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "has lines" true (List.length lines > 3);
  let seen = Hashtbl.create 8 in
  List.iter
    (fun line ->
      canonical line;
      let j = parse line in
      match member "type" j with
      | Some (J.Str ty) ->
          Hashtbl.replace seen ty ();
          let require k =
            if member k j = None then
              Alcotest.failf "%s line missing %S: %s" ty k line
          in
          (match ty with
          | "meta" -> require "schema"
          | "counter" | "gauge" -> require "name"
          | "histogram" ->
              require "name";
              require "buckets"
          | "event" ->
              require "kind";
              require "t"
          | "span" ->
              require "name";
              require "dur_s"
          | other -> Alcotest.failf "unknown line type %S" other)
      | _ -> Alcotest.failf "line without type: %s" line)
    lines;
  List.iter
    (fun ty ->
      Alcotest.(check bool) (ty ^ " line present") true (Hashtbl.mem seen ty))
    [ "meta"; "counter"; "histogram"; "event"; "span" ];
  (* First line is the meta header, so consumers can sniff the schema. *)
  match parse (List.hd lines) |> member "type" with
  | Some (J.Str "meta") -> ()
  | _ -> Alcotest.fail "first line must be the meta record"

let test_chrome_trace_schema () =
  with_telemetry_on @@ fun () ->
  populate ();
  let path = Filename.temp_file "ebrc_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path)
  @@ fun () ->
  Export.write_chrome_trace ~path ();
  let text = read_file path in
  Alcotest.(check bool) "one line" true
    (String.index_opt text '\n' = Some (String.length text - 1));
  canonical (String.trim text);
  let j = parse text in
  match member "traceEvents" j with
  | Some (J.List evs) ->
      Alcotest.(check bool) "has events" true (List.length evs > 2);
      List.iter
        (fun ev ->
          List.iter
            (fun k ->
              if member k ev = None then
                Alcotest.failf "trace event missing %S" k)
            [ "name"; "ph"; "pid" ];
          match member "ph" ev with
          | Some (J.Str ("X" | "i" | "M")) -> ()
          | Some (J.Str ph) -> Alcotest.failf "unexpected phase %S" ph
          | _ -> Alcotest.fail "phase not a string")
        evs;
      (* The recorded span and instant event must both be present. *)
      let has name =
        List.exists (fun ev -> member "name" ev = Some (J.Str name)) evs
      in
      Alcotest.(check bool) "span present" true (has "test.export.span");
      Alcotest.(check bool) "event present" true (has "test.export.event")
  | _ -> Alcotest.fail "no traceEvents array"

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_summary_renders () =
  with_telemetry_on @@ fun () ->
  populate ();
  let s = Export.summary () in
  Alcotest.(check bool) "mentions counter" true
    (contains ~sub:"test.export.counter" s);
  (* Histogram lines carry the percentile estimates. *)
  List.iter
    (fun p ->
      Alcotest.(check bool) ("mentions " ^ p) true (contains ~sub:p s))
    [ "p50"; "p90"; "p99" ]

let () =
  Alcotest.run "telemetry"
    [
      ( "gating",
        [
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "reset zeroes" `Quick test_reset_zeroes;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter_basics;
          Alcotest.test_case "gauge extremes" `Quick test_gauge_extremes;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "quantile of buckets" `Quick
            test_quantile_of_buckets;
          Alcotest.test_case "histogram quantile" `Quick
            test_histogram_quantile;
          Alcotest.test_case "probe totals" `Quick test_probe_totals;
          Alcotest.test_case "kind clash" `Quick test_kind_clash_rejected;
        ] );
      ( "events",
        [
          Alcotest.test_case "ring bounded" `Quick test_event_ring_bounded;
          Alcotest.test_case "fields" `Quick test_event_fields;
        ] );
      ( "shard_merge",
        [
          Alcotest.test_case "pool totals 1 vs 4 domains" `Quick
            test_shard_merge_deterministic;
          Alcotest.test_case "scenario counters -j1 vs -j4" `Slow
            test_scenario_counters_j1_vs_j4;
        ] );
      ( "pins",
        [
          Alcotest.test_case "seed-9 counters" `Quick
            test_seed9_counters_pinned;
          Alcotest.test_case "fleet: pool" `Quick test_fleet_pool;
          Alcotest.test_case "fleet: task queue" `Quick test_fleet_task_queue;
          Alcotest.test_case "fleet: chaos" `Quick test_fleet_chaos;
          Alcotest.test_case "fleet: result store" `Quick
            test_fleet_result_cache;
          Alcotest.test_case "fleet: worker drain" `Quick test_fleet_worker;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl schema" `Quick test_jsonl_schema;
          Alcotest.test_case "chrome trace schema" `Quick
            test_chrome_trace_schema;
          Alcotest.test_case "summary" `Quick test_summary_renders;
        ] );
    ]
