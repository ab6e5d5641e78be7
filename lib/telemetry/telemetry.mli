(** Process-wide metrics and structured event tracing for the
    simulator, the protocols, the sweep fleet and the domain pool.

    One way a count reaches the registry: every counter is a probe.
    The component that counts an event owns the count and bumps it
    unconditionally, whether telemetry is on or off; the registry only
    reads it. A counter's process-wide total is one [int Atomic.t]:

    - Process-wide components (cache, pool, worker, task queue, chaos,
      figure runners) take it from {!Probe.count} and bump it with
      [Atomic.incr] / [Atomic.fetch_and_add]; {!snapshot}, stream
      progress records and flight dumps read it live.
    - The simulator's per-run components (events, wheel, link, queue,
      TCP, TFRC, fluid, faults, loss modules) keep plain [mutable int]
      fields and register read-only getters over them ({!Probe.add})
      in a run-local {!Probe.set} owned by their engine. The engine
      adds the run's growth into the total once per [run] call while
      recording is on ({!Probe.absorb}); the stream sampler reads the
      same getters at sim-time boundaries.

    Observations are not counts: {!Histogram} samples, gauge levels,
    {!event}s and spans record into the registry under one lock, gated
    on {!is_on}.

    Determinism contract: counter values and histogram bucket/count
    totals are integer sums, so they do not depend on how runs were
    partitioned across domains — a sweep recorded under [Pool] with 1
    or N domains yields bit-identical totals.

    Readers ({!snapshot}, {!events}, {!spans}, {!reset}) are intended
    for quiescent points — between pool jobs or after a run. *)

val set_enabled : bool -> unit
(** Turn recording on or off (off at startup). Flip only at quiescent
    points: an engine absorbs its probes at the end of each [run]
    while recording is on, so a run straddling a flip is counted by
    the state at its end. *)

val is_on : unit -> bool

val on : bool Atomic.t
(** The enable gate behind {!is_on}, for event-recording sites that
    read it directly ([Atomic.get Telemetry.on] compiles to one load
    and branch). Treat as read-only — writes go through
    {!set_enabled}. *)

val wall_now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]); the clock used by spans
    and by the pool's chunk timings. *)

val reset : unit -> unit
(** Zero every registered metric — the {!Probe.count} atomics too —
    and clear the event ring and span log. Handles stay valid. *)

(** {1 Metrics} *)

type kind = Counter | Gauge | Histogram

module Histogram : sig
  (** Log2-bucketed histogram: value [v] lands in the bucket whose
      range is [[2^k, 2^(k+1))]; non-positive values land in the
      lowest bucket. *)

  type t

  val make : ?help:string -> string -> t
  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val quantile : t -> float -> float
  (** [quantile h q] for [q] in [[0, 1]] (clamped): the cumulative
      count over the log2 buckets crosses [q * count] in some bucket
      [[lo, 2*lo)]; the result interpolates linearly within it.
      Accurate to bucket resolution. [nan] when empty. *)
end

module Probe : sig
  (** Counts a component keeps itself, read by the registry. *)

  val count : ?help:string -> string -> int Atomic.t
  (** Find-or-create the counter with this name and return its total,
      for a process-wide owner to bump directly (no gate, no lock).
      Every call with the same name returns the same atomic. Raises
      [Invalid_argument] if the name is already registered with a
      different metric kind. *)

  type key
  (** A registered run-local metric: name, kind and help text.
      Declared once per module. *)

  val counter : ?help:string -> string -> key
  (** Find-or-create a counter-kind metric read through probes. The
      getters must be monotone: absorbs and stream deltas are
      differences of successive reads. *)

  val gauge : ?help:string -> string -> key
  (** Find-or-create a gauge-kind metric: the getter returns a level
      (queue depth, backlog), read at each stream sample and recorded
      at each absorb; the snapshot keeps the number of recorded levels
      and their extremes, which do not depend on run order. *)

  type set
  (** The probes of one simulation, owned by its engine. Probes of
      the same key add up (two links' deliveries are one
      [link.delivered]). *)

  val create : unit -> set
  val add : set -> key -> (unit -> int) -> unit

  val absorb : set -> unit
  (** When recording is on: add each counter's growth since the
      previous absorb into the process-wide totals, and record each
      gauge's current level as one sample. No-op when off. *)

  type view
  (** A set's probes grouped by key and sorted by name — the stream
      sampler's read order. Keys added to the set after the view was
      taken are not in it. *)

  val view : set -> view
  val size : view -> int
  val name : view -> int -> string
  val kind : view -> int -> kind

  val read : view -> int array -> unit
  (** Current value of every metric of the view, by index, into a
      caller-preallocated array of length {!size}. Allocation-free. *)
end

type snapshot = {
  snap_name : string;
  snap_kind : kind;
  snap_help : string;
  count : int;          (** counter value / number of samples *)
  sum : float;          (** histogram sum of observations; 0 otherwise *)
  min_v : float;        (** [nan] when no samples (always, for a counter) *)
  max_v : float;        (** [nan] when no samples (always, for a counter) *)
  buckets : (float * int) array;
      (** Non-empty only for histograms: (bucket lower bound, count)
          for each non-zero bucket, in increasing bound order. *)
}

val snapshot : unit -> snapshot list
(** Every registered metric, sorted by name. *)

val quantile_of_buckets : (float * int) array -> float -> float
(** The interpolation behind {!Histogram.quantile}, usable directly on
    a {!snapshot}'s [buckets] array (so exporters can print percentiles
    without re-reading the registry). [nan] when the total count is
    zero. *)

(** {1 Structured events} *)

type event = {
  time : float;   (** caller-supplied clock, usually simulated seconds *)
  ev : string;    (** event kind, e.g. ["link.drop"] *)
  flow : int;     (** flow id, [-1] when not flow-scoped *)
  value : float;  (** primary numeric attribute *)
}

val event :
  ?flow:int -> ?value:float -> string -> time:float -> unit
(** Append a structured event to the process-wide ring buffer. When
    the ring is full the oldest event is overwritten (counted by
    {!events_dropped}), so memory stays bounded. No-op when
    disabled. *)

val events : unit -> event list
(** All retained events, sorted by (time, kind, flow, value). *)

val events_dropped : unit -> int

val set_event_capacity : int -> unit
(** Ring capacity (default 65536, minimum 16). Resizes and clears the
    ring; call only when quiescent. *)

(** {1 Spans (wall-clock timers)} *)

type span = {
  span_name : string;
  cat : string;
  t0 : float;     (** wall-clock begin, seconds *)
  t1 : float;     (** wall-clock end, seconds *)
  dom : int;      (** recording domain id *)
}

val with_span : ?cat:string -> string -> (unit -> 'a) -> 'a
(** Time [f] on the wall clock and record a span (also on exception).
    Calls [f] directly when disabled. Spans are coarse-grained
    (a figure batch, a report) and go through a small lock. *)

val spans : unit -> span list
(** Recorded spans in completion order. *)
