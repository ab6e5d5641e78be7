(** The one reader and judge of `BENCH_*.json` perf records.

    Two filename shapes coexist historically: day-only
    ([BENCH_2026-08-05.json], from before bench runs were timestamped)
    and full UTC ([BENCH_2026-08-05T141802Z.json]). Ordering
    lexicographically by filename happens to work only because of the
    shapes' shared prefix — and silently breaks for any third shape —
    so record order is derived from the {e embedded timestamp}
    instead: day-only files normalise to midnight UTC, records without
    a recognisable timestamp sort last (with a warning) in filename
    order.

    Two views share one table reader and one rule set: {!gate}
    (bench-compare: the newest record against the previous one) and
    {!analyze} ([ebrc bench-trend]: every record, last against best). *)

val timestamp_of_filename : string -> string option
(** [Some "YYYY-MM-DDTHHMMSSZ"] for the two known shapes (day-only
    normalises to ["T000000Z"]); [None] otherwise. Input is a base
    name, not a path. *)

type record = {
  file : string;  (** base filename *)
  json : Json.t;
}

val list_ordered : dir:string -> string list * string list
(** [(files, warnings)]: all [BENCH_*.json] base names in [dir] in
    timestamp order (ties and missing timestamps break by filename;
    missing-timestamp files last), plus one warning per file whose
    name carries no recognisable timestamp. *)

val load_all : dir:string -> record list * string list
(** {!list_ordered}, with each record parsed. Unreadable or
    unparsable files are dropped with a warning. *)

(** {1 Record groups} *)

type group =
  | Ns  (** [microbench_ns_per_run]: hot-path timings, ns per run *)
  | Counter  (** [telemetry_summary.counters]: fixed-seed event counts *)

(** {1 The gate} *)

type severity = Fail | Warn | Info
type finding = { severity : severity; subject : string; detail : string }

val gate : warn_only:bool -> baseline:Json.t -> current:Json.t -> finding list
(** Judge [current] against [baseline]. [Fail]s: a timing more than
    20% above its baseline when the baseline is at least 1 ms (in ns
    per run; below that floor run-to-run noise routinely exceeds the
    threshold, so a slower timing is reported but never flagged); a
    counter that changed at all, from 0 too (counter totals at equal
    seeds are deterministic, so a change means the simulation changed
    behaviour); the stream-off arm
    ([stream_ablation.scenario_off_ms]) regressed against the
    telemetry-off arm ([telemetry_summary.disabled_ms]) of the same
    record; and any identity gate ([stream_ablation.bit_identical],
    [flows1m.bit_identical], [sweep_service.store_identical]) reading
    [false]. [warn_only] demotes drift and the stream-off gate to
    [Warn], never an identity gate. Everything else is [Info]: each
    compared timing, the met/missed targets, and each top-level block
    in [baseline] but not in [current]. A check whose input is missing
    is skipped: timings and counters need both records, the other
    checks only [current]. *)

(** {1 The trend} *)

type series = {
  key : string;
  group : group;
  n : int;  (** records carrying this key *)
  first : float;
  last : float;
  best : float;  (** min over the series (timings); [nan] for counters *)
  slope : float;
      (** least-squares slope per record over (record index, value) *)
  regressed : bool;  (** timings only: last against best, by the gate's timing rule *)
  improved : bool;  (** timings only: last is ≤80% of first *)
  changed : bool;  (** counters only: last differs from first *)
}

val analyze : record list -> series list
(** Records must already be in time order ({!load_all}). Series are
    sorted: timings first, then counters, each by key. *)

val render : files:string list -> series list -> string
(** Human-readable trend table. *)
