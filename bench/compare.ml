(* Compare the newest two BENCH_*.json records and fail loudly when a
   hot-path micro-benchmark regresses by more than 20%.

   Records are ordered by the timestamp embedded in the filename (via
   Ebrc_obs.Bench_records), so the historical day-only shape
   [BENCH_2026-08-05.json] and the timestamped
   [BENCH_2026-08-05T141802Z.json] coexist without the lexicographic
   accident the old sort relied on; files without a recognisable
   timestamp sort last with a warning rather than silently mis-order
   the baseline. Parsing goes through Ebrc_obs.Json — the same reader
   `ebrc bench-trend` uses — so older records (and hand-edited ones)
   keep working. Only tests present in both records are compared, and
   sub-millisecond kernels are reported but never fatal: at that scale
   run-to-run clock noise routinely exceeds the regression
   threshold. *)

open Ebrc_obs.Json

(* Every gate below reads numbers as floats; integral values parse as
   [Int], so fold them back into [Num] once here. *)
let rec as_floats = function
  | Int i -> Num (float_of_int i)
  | List xs -> List (List.map as_floats xs)
  | Obj kvs -> Obj (List.map (fun (k, v) -> (k, as_floats v)) kvs)
  | j -> j

let parse_json path s =
  match Ebrc_obs.Json.parse s with
  | Ok v -> as_floats v
  | Error e ->
      Printf.eprintf "bench-compare: %s: %s\n" path e;
      exit 1

(* ------------------------------------------------------------------ *)
(* Comparison.                                                         *)
(* ------------------------------------------------------------------ *)

(* Record ordering and the regression rule are shared with `ebrc
   bench-trend`. *)
module Records = Ebrc_obs.Bench_records

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let bench_files () =
  let files, warnings = Records.list_ordered ~dir:"." in
  List.iter (fun w -> Printf.eprintf "bench-compare: %s\n" w) warnings;
  files

let ns_table json =
  match member "microbench_ns_per_run" json with
  | Some (Obj kvs) ->
      List.filter_map
        (fun (k, v) -> match v with Num f -> Some (k, f) | _ -> None)
        kvs
  | _ -> []

(* Telemetry counters from the fixed-seed ablation scenario. These are
   deterministic, so between two records at the same seed any drift
   means the simulation itself changed behaviour — a scientific
   regression, and fatal by default. An intentional simulator change
   legitimately moves them: set EBRC_COMPARE_WARN_ONLY=1 for the one
   run that establishes the new baseline. Counters present in only one
   record (new instrumentation) are skipped, not failed. *)
let telemetry_drift_threshold = 0.05

let warn_only = Sys.getenv_opt "EBRC_COMPARE_WARN_ONLY" = Some "1"

let telemetry_counters json =
  match member "telemetry_summary" json with
  | Some summary -> (
      match member "counters" summary with
      | Some (Obj kvs) ->
          List.filter_map
            (fun (k, v) -> match v with Num f -> Some (k, f) | _ -> None)
            kvs
      | _ -> [])
  | None -> []

(* Returns the drifted counters so the caller can decide to fail. *)
let compare_telemetry old_json new_json =
  let old_tbl = telemetry_counters old_json in
  let new_tbl = telemetry_counters new_json in
  if old_tbl = [] || new_tbl = [] then []
  else begin
    let drifted =
      List.filter_map
        (fun (name, old_v) ->
          match List.assoc_opt name new_tbl with
          | Some new_v when old_v > 0.0 ->
              let rel = abs_float (new_v -. old_v) /. old_v in
              if rel > telemetry_drift_threshold then
                Some (name, old_v, new_v, rel)
              else None
          | _ -> None)
        old_tbl
    in
    (match drifted with
    | [] ->
        Printf.printf
          "  telemetry counters: %d compared, drift <= %.0f%%\n\n"
          (List.length old_tbl) (100.0 *. telemetry_drift_threshold)
    | ds ->
        Printf.printf
          "  telemetry counters: %s — %d counter(s) drifted > %.0f%% \
           at equal seeds (simulation behaviour changed?):\n"
          (if warn_only then "WARNING (EBRC_COMPARE_WARN_ONLY)" else "FAIL")
          (List.length ds) (100.0 *. telemetry_drift_threshold);
        List.iter
          (fun (name, old_v, new_v, rel) ->
            Printf.printf "    %-40s %12.0f -> %12.0f  (%+.1f%%)\n" name old_v
              new_v (100.0 *. rel *. (if new_v >= old_v then 1.0 else -1.0)))
          ds;
        print_newline ());
    drifted
  end

(* Figure regeneration times: purely informational (wall time depends
   on the machine), but useful context next to the microbenches. A
   figure may carry an explicit "skipped: <reason>" string instead of
   a number (sub-millisecond analytic figures do); those are counted
   as deliberately skipped, distinct from figures absent in a record.
   Legacy records used a bare null for the same thing; both forms are
   set aside rather than compared against 0. *)
let figure_seconds json =
  match member "figure_regeneration_seconds" json with
  | Some (Obj kvs) ->
      List.filter_map
        (fun (k, v) -> match v with Num f -> Some (k, f) | _ -> None)
        kvs
  | _ -> []

let figure_skips json =
  match member "figure_regeneration_seconds" json with
  | Some (Obj kvs) ->
      List.length
        (List.filter
           (function _, Str _ | _, Null -> true | _ -> false)
           kvs)
  | _ -> 0

let compare_figure_seconds old_json new_json =
  let old_tbl = figure_seconds old_json in
  let new_tbl = figure_seconds new_json in
  if old_tbl <> [] && new_tbl <> [] then begin
    let compared, faster, slower =
      List.fold_left
        (fun (n, f, s) (name, old_s) ->
          match List.assoc_opt name new_tbl with
          | Some new_s when old_s > 0.0 ->
              ( n + 1,
                (if new_s < old_s then f + 1 else f),
                if new_s > old_s then s + 1 else s )
          | _ -> (n, f, s))
        (0, 0, 0) old_tbl
    in
    let absent = List.length old_tbl - compared in
    Printf.printf
      "  figure regeneration: %d timed figures compared (%d faster, %d \
       slower, %d explicitly skipped, %d absent; informational only)\n\n"
      compared faster slower (figure_skips new_json) absent
  end

(* Blocks the bench no longer measures: A/B blocks whose alternate
   code paths have been deleted, and the chaos soak, which `make
   chaos-e2e` (scripts/chaos_ci.sh) runs with stricter checks. A
   baseline record that still carries one is reported once as removed;
   there is nothing left to compare it against. *)
let retired_blocks =
  [
    "lanes_ablation";
    "wheel_ablation";
    "freelist_ablation";
    "hybrid_ablation";
    "faults_ablation";
    "gap_skip_ablation";
    "chaos_soak";
  ]

let report_retired old_json new_json =
  let gone =
    List.filter
      (fun name -> member name old_json <> None && member name new_json = None)
      retired_blocks
  in
  if gone <> [] then
    Printf.printf "  removed blocks (not compared): %s\n\n"
      (String.concat ", " gone)

let () =
  match List.rev (bench_files ()) with
  | [] | [ _ ] ->
      print_endline
        "bench-compare: need at least two BENCH_*.json records (run `make \
         bench` twice)";
      exit 0
  | newest :: prev :: _ ->
      Printf.printf "bench-compare: %s (baseline) -> %s (current)\n\n" prev
        newest;
      let old_json = parse_json prev (read_file prev) in
      let new_json = parse_json newest (read_file newest) in
      let old_tbl = ns_table old_json in
      let new_tbl = ns_table new_json in
      if old_tbl = [] || new_tbl = [] then begin
        Printf.printf
          "bench-compare: no microbench_ns_per_run table in one of the \
           records; nothing to compare\n";
        exit 0
      end;
      let regressions = ref [] in
      Printf.printf "  %-45s %12s %12s %8s\n" "test" "baseline ns" "current ns"
        "ratio";
      List.iter
        (fun (name, old_ns) ->
          match List.assoc_opt name new_tbl with
          | None -> ()
          | Some new_ns ->
              let ratio = new_ns /. old_ns in
              let flag =
                if ratio > 1.0 +. Records.regression_threshold then
                  if old_ns >= Records.noise_floor_ns then begin
                    regressions := (name, ratio) :: !regressions;
                    "  REGRESSED"
                  end
                  else "  (noisy: sub-ms baseline, ignored)"
                else ""
              in
              Printf.printf "  %-45s %12.0f %12.0f %7.2fx%s\n" name old_ns
                new_ns ratio flag)
        old_tbl;
      print_newline ();
      let drifted = compare_telemetry old_json new_json in
      compare_figure_seconds old_json new_json;
      (match member "parallel_figure_sweep" new_json with
      | Some sweep -> (
          match (member "figure" sweep, member "speedup" sweep) with
          | Some (Str fig), Some (Num sp) ->
              Printf.printf "  figure %s speedup %.2fx (>= 1.6x %s)\n\n" fig sp
                (if sp >= 1.6 then "met" else "missed")
          | _ -> ())
      | None -> ());
      report_retired old_json new_json;
      (match member "flows100k" new_json with
      | Some fl -> (
          match member "wheel_ns_per_packet" fl with
          | Some (Num w) ->
              Printf.printf "  flows100k: %.0f ns/packet (informational)\n\n"
                w
          | _ -> ())
      | None -> ());
      (* flows1m: informational timing for the hybrid scale point (the
         <= 2x ratio vs flows100k moves with the host), but fingerprint
         disagreement between equal-seed reruns is fatal — the hybrid
         co-simulation's determinism contract. *)
      let flows1m_broken =
        match member "flows1m" new_json with
        | Some fl -> (
            (match
               ( member "bg_flows" fl,
                 member "ns_per_event" fl,
                 member "ratio_vs_flows100k" fl )
             with
            | Some (Num bg), Some (Num ns), Some (Num ratio) ->
                Printf.printf
                  "  flows1m: %.0f fluid bg flows, %.0f ns/event (%.2fx vs \
                   flows100k; <= 2x target %s)\n"
                  bg ns ratio
                  (if ratio <= 2.0 then "met" else "missed")
            | _ -> ());
            match member "bit_identical" fl with
            | Some (Bool true) ->
                Printf.printf
                  "  flows1m: equal-seed reruns bit-identical\n";
                false
            | Some (Bool false) ->
                Printf.printf
                  "  flows1m: FAIL — equal-seed hybrid reruns disagree on \
                   the dispatch fingerprint\n";
                true
            | _ -> false)
        | None -> false
      in
      (* The telemetry overhead budget: recording on within 10% and a
         live stream within 15% of the silent run (same config, same
         seed). Host-dependent, so reported met or missed, not gated. *)
      (let overhead block =
         match Option.bind (member block new_json) (member "overhead_pct") with
         | Some (Num p) -> Some p
         | _ -> None
       in
       let verdict ok = if ok then "met" else "missed" in
       match (overhead "telemetry_summary", overhead "stream_ablation") with
       | Some t, Some st ->
           Printf.printf
             "  overhead budget: telemetry %+.1f%% (<= 10%% %s), streaming \
              %+.1f%% (<= 15%% %s)\n"
             t (verdict (t <= 10.0)) st (verdict (st <= 15.0))
       | _ -> ());
      (* Streaming ablation: two gates. The streamed run must
         serialize byte-identically to the silent run — observation
         may not perturb the simulation, fatal when false. And the
         stream-off arm must stay within the regression threshold of
         the telemetry ablation's own disabled arm (same config, same
         seed): disabled streaming must be free. The timing gate
         respects EBRC_COMPARE_WARN_ONLY (it moves with the host);
         the identity gate does not. Absent in pre-stream records;
         skipped then. *)
      let stream_broken =
        match member "stream_ablation" new_json with
        | Some sa ->
            let id_broken =
              match member "bit_identical" sa with
              | Some (Bool true) ->
                  Printf.printf
                    "  stream ablation: streamed run bit-identical to the \
                     silent run\n";
                  false
              | Some (Bool false) ->
                  Printf.printf
                    "  stream ablation: FAIL — streaming a run changes its \
                     serialized result\n";
                  true
              | _ -> false
            in
            let overhead_broken =
              match member "scenario_off_ms" sa with
              | Some (Num off_ms) -> (
                  match
                    Option.bind
                      (member "telemetry_summary" new_json)
                      (member "disabled_ms")
                  with
                  | Some (Num base_ms) when base_ms > 0.0 ->
                      let ratio = off_ms /. base_ms in
                      if ratio > 1.0 +. Records.regression_threshold then begin
                        Printf.printf
                          "  stream ablation: %s — stream-off scenario %.1f \
                           ms vs %.1f ms telemetry-off baseline (%.2fx; \
                           disabled streaming must be free)\n"
                          (if warn_only then
                             "WARNING (EBRC_COMPARE_WARN_ONLY)"
                           else "FAIL")
                          off_ms base_ms ratio;
                        not warn_only
                      end
                      else begin
                        Printf.printf
                          "  stream ablation: stream-off %.1f ms within \
                           %.2fx of the %.1f ms telemetry-off baseline\n"
                          off_ms ratio base_ms;
                        false
                      end
                  | _ -> false)
              | _ -> false
            in
            (match
               (member "scenario_streaming_ms" sa, member "delta_records" sa)
             with
            | Some (Num on_ms), Some (Num deltas) ->
                Printf.printf
                  "  stream ablation: streaming arm %.1f ms, %.0f delta \
                   record(s) (informational)\n\n"
                  on_ms deltas
            | _ -> print_newline ());
            id_broken || overhead_broken
        | None -> false
      in
      (* Sweep service: the worker fleet publishes into a
         content-addressed store that must be byte-identical to a
         serial in-process run of the same manifest — disagreement
         means the service layer perturbs results, fatal regardless of
         timing. The throughput targets (2 workers never slower than
         1; one worker within 1.3x of serial) move with the host and
         are reported met or missed, not gated. Records from before
         the 2-worker arm carry [worker4_seconds] and print their
         1-vs-4 rates instead. Absent in pre-service records; skipped
         then. *)
      let service_broken =
        match member "sweep_service" new_json with
        | Some sv -> (
            let secs k =
              match member k sv with
              | Some (Num s) when s > 0.0 -> Some s
              | _ -> None
            in
            let verdict ok = if ok then "met" else "missed" in
            (match
               ( member "tasks" sv,
                 secs "serial_seconds",
                 secs "worker1_seconds",
                 secs "worker2_seconds",
                 secs "worker4_seconds" )
             with
            | Some (Num tasks), Some serial, Some w1, Some w2, _ ->
                Printf.printf
                  "  sweep service: %.0f tasks — %.1f tasks/s serial, %.1f \
                   at 1 worker, %.1f at 2\n\
                  \  sweep service: 2 workers >= 1 worker %s; overhead \
                   %.2fx serial (<= 1.3x %s)\n"
                  tasks (tasks /. serial) (tasks /. w1) (tasks /. w2)
                  (verdict (w2 <= w1)) (w1 /. serial)
                  (verdict (w1 /. serial <= 1.3))
            | Some (Num tasks), _, Some w1, None, Some w4 ->
                Printf.printf
                  "  sweep service: %.0f tasks — %.1f tasks/s at 1 worker, \
                   %.1f tasks/s at 4\n"
                  tasks (tasks /. w1) (tasks /. w4)
            | _ -> ());
            (match member "cold_over_warm" sv with
            | Some (Num r) ->
                Printf.printf
                  "  sweep service: warm resume %.0fx faster than cold \
                   (>= 50x target %s)\n"
                  r
                  (if r >= 50.0 then "met" else "missed")
            | _ -> ());
            match member "store_identical" sv with
            | Some (Bool true) ->
                Printf.printf
                  "  sweep service: fleet store byte-identical to the \
                   serial in-process run\n\n";
                false
            | Some (Bool false) ->
                Printf.printf
                  "  sweep service: FAIL — multi-worker store is NOT \
                   byte-identical to the serial in-process run\n\n";
                true
            | _ -> false)
        | None -> false
      in
      let failed = ref false in
      if service_broken then failed := true;
      if stream_broken then failed := true;
      if flows1m_broken then failed := true;
      (match List.rev !regressions with
      | [] -> print_endline "bench-compare: OK, no hot-path regression > 20%"
      | rs ->
          Printf.printf
            "bench-compare: FAIL — %d hot-path regression(s) > 20%%:\n"
            (List.length rs);
          List.iter
            (fun (name, ratio) ->
              Printf.printf "  %s slowed down %.2fx\n" name ratio)
            rs;
          failed := true);
      if drifted <> [] then
        if warn_only then
          print_endline
            "bench-compare: telemetry drift ignored (EBRC_COMPARE_WARN_ONLY=1)"
        else begin
          Printf.printf
            "bench-compare: FAIL — %d fixed-seed telemetry counter(s) \
             drifted (set EBRC_COMPARE_WARN_ONLY=1 to accept a new \
             baseline)\n"
            (List.length drifted);
          failed := true
        end;
      if !failed then exit 1
