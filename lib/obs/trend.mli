(** Longitudinal perf-trend analysis over the repo's `BENCH_*.json`
    history: joins hot-path timings ([microbench_ns_per_run]) and
    behavioural telemetry counters ([telemetry_summary.counters])
    across time-ordered records, and reports first/last/best, a
    per-record least-squares slope, and regression flags. The
    complement to bench/compare.ml's newest-vs-previous gate: compare
    answers "did this PR regress", trend answers "how did we get
    here". *)

type group = Ns | Counter

type series = {
  key : string;
  group : group;
  n : int;  (** records carrying this key *)
  first : float;
  last : float;
  best : float;  (** min over the series (timings); [nan] for counters *)
  slope : float;
      (** least-squares slope per record over (record index, value) *)
  regressed : bool;
      (** timings only: last is >20% above best and the best is above
          the 1 ms/run noise floor — bench-compare's rule,
          {!Bench_records.regression_threshold} *)
  improved : bool;  (** timings only: last is ≤80% of first *)
  changed : bool;
      (** counters only: last differs from first — a behaviour drift,
          since counter totals are deterministic *)
}

val analyze : Bench_records.record list -> series list
(** Records must already be in time order ({!Bench_records.load_all}).
    Series are sorted: timings first, then counters, each by key. *)

val render : files:string list -> series list -> string
(** Human-readable trend table. *)

val to_json : files:string list -> warnings:string list -> series list -> string
