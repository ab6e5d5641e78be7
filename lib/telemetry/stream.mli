(** Live telemetry streaming: append-only JSONL delta records written
    while a figure/report/bench invocation runs, so `ebrc status` (and
    anything else that can tail a file) can watch progress without
    touching the simulator.

    Two cadences coexist:

    - {e sim-time} sampling ({!sim_active}): the engine fires the
      sampler at fixed simulated-time boundaries, so the resulting
      [run_start]/[delta]/[run_end] records depend only on the
      simulation itself. Combined with {!finalize}'s canonical
      reordering, a stream recorded under a 1-domain and a 4-domain
      pool is byte-identical.
    - {e wall-clock} progress ({!wall_tick}): the pool pings the
      stream after each chunk; at most one [progress] record per
      {e period_wall} seconds is written, carrying global counter
      totals. These records are inherently wall-dependent and are
      excluded from the determinism contract (disable with
      [period_wall = 0] when byte-identity matters).

    Every record is one self-describing JSON object per line, built as
    an {!Ebrc_obs.Json.t} and rendered by [Json.print], appended
    under a single mutex with an immediate flush, so concurrent pool
    domains never interleave partial lines and a reader always sees
    whole records (the last line may be missing, never torn mid-write
    beyond the final line).

    Delta records carry {e integer} fields only, read from the run's
    probe set ({!Telemetry.Probe}): counter deltas since the previous
    sample, which telescope exactly — summed deltas equal the run's
    contribution to the final snapshot bit-for-bit — and gauge levels
    at the sample instant. A run's probes belong to its own engine, so
    the records depend only on the simulation, never on which pool
    domain ran it or what ran there before. *)

val enable : path:string -> period_sim:float -> period_wall:float -> unit
(** Open [path] (append/create) and start streaming. [period_sim] is
    the simulated-seconds sampling period (0 disables sim-time
    sampling); [period_wall] the wall-clock progress period in seconds
    (0 disables progress records). Writes the stream's [meta] line if
    the file is empty. Implies nothing about {!Telemetry.set_enabled}:
    callers turn the registry on themselves. *)

val disable : unit -> unit
(** Stop streaming and close the file (no reordering; see
    {!finalize}). Safe when not enabled. *)

val sim_active : unit -> bool
(** Streaming is on {e and} sim-time sampling is wanted — the test a
    scenario uses before attaching an engine sampler. *)

val sim_period : unit -> float

val path : unit -> string option

val manifest :
  cmd:string -> ?attrs:(string * Ebrc_obs.Json.t) list -> unit -> unit
(** Append a [manifest] record describing the invocation: [cmd], then
    [attrs] as fields in list order. *)

val figure_event : id:string -> phase:string -> ?tables:int -> unit -> unit
(** Append a [figure] lifecycle record; [phase] is ["start"], ["done"]
    or ["failed"]. *)

val task :
  key:string -> phase:string -> ?attrs:(string * Ebrc_obs.Json.t) list ->
  unit -> unit
(** Append a [task] lifecycle record (the sweep-service worker's
    lease/done/failed transitions), keyed by the task's content
    digest; [attrs] follow as fields in list order. *)

val wall_tick : unit -> unit
(** Rate-limited wall-clock progress probe (see module doc). Cheap
    when streaming is off (one atomic load). *)

(** {1 Per-run delta sampling} *)

type run
(** Cursor for one simulation run: the run's probe view, fixed at
    {!run_start}, and the counter values at the last sample, so the
    next sample can emit just the diff. *)

val run_start : key:string -> Telemetry.Probe.set -> run
(** Start a run stream keyed by [key] over the run's probe set. The
    key must identify the run's inputs, stable across schedules, and
    differ between runs whose records differ ({!finalize} orders
    records by it; a scenario uses the digest of its config,
    [Scenario.stream_key]). Call it once
    every component of the run is built: the view is fixed here, and
    probes added later are not streamed. Counter baselines are zero —
    the probed components were built for this run. *)

val sample : run -> t_sim:float -> events:int -> pending:int -> unit
(** Append a [delta] record at simulated time [t_sim]: counter deltas
    since the previous sample and gauge levels now, plus the run's
    cumulative engine event count [events] (streamed as a delta) and
    current event-queue depth [pending]. Reads the probes into
    preallocated arrays; the only allocation is the record and its
    line. *)

val run_end : run -> t_sim:float -> events:int -> pending:int -> ok:bool -> unit
(** Append the final [run_end] record (same payload plus [ok]). After
    this the summed deltas of the run equal its total contribution
    exactly. *)

(** {1 Reading back} *)

val recent : unit -> string list
(** The most recent stream lines (bounded ring, oldest first) — the
    flight recorder's view of "what was happening". *)

val finalize : unit -> unit
(** Append a closing [progress] record (unless wall progress is off),
    then close the stream and rewrite the file in canonical order:
    non-run records (meta/manifest/progress/figure) keep their
    original order, run records are stably sorted by
    (run key, seq, record rank), read from each line's head by
    [Json.head] without parsing the rest, and a [stream_end] record is
    appended. The rewrite goes through a temp file + rename, so
    readers never observe a half-written file. Canonical order is what
    turns "same simulations, different pool interleaving" into
    byte-identical files. No-op when streaming was never enabled. *)
