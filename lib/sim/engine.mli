(** Discrete-event simulation engine: thunks scheduled at absolute times,
    re-armable timers, deterministic processing order. *)

type timer
(** A re-armable timer: an action plus, while armed, a deadline and the
    tie-break ticket of its last arm. See {!arm}. *)

type lane
(** A FIFO stream of unit events that all run one action. See
    {!lane_push}. *)

type t = private {
  queue : timer Event_queue.t;
  clock : floatarray;
  mutable processed : int;
  wheel : timer Timing_wheel.t;
  mutable advance_hook : float -> unit;
  mutable has_hook : bool;
  mutable sampler : float -> unit;
  mutable next_sample : float;
  mutable sample_period : float;
  mutable discarded : int;
  probes : Ebrc_telemetry.Telemetry.Probe.set;
  mutable lanes : lane array;
  mutable lane_min : int;
  mutable lane_count : int;
}
(** Exposed [private] (precedent: {!Timing_wheel.t}) so the run loop's
    helpers and per-packet callers can reach the engine's state by direct
    field loads; [private] keeps every field read-only outside this
    module — all mutation still goes through the API — except the
    contents of [clock]: a [floatarray] stays writable through its
    cells, so only this module may store to it (read it through
    {!now}; [make opaque-check] fails if another module names the
    field).

    [clock] is a one-cell [floatarray] holding the simulated time, read
    through {!now}: a mutable float field in this record would be a
    boxed pointer, so each fired event would allocate a box and pay a
    write barrier to store it, where a cell store is one unboxed write.
    [now] is inlined wherever the caller is compiled against this
    module's [.cmx] without [-opaque] (the release build; see
    [dune-workspace]). So are the per-event calls it feeds — the
    scheduling calls here, the wheel's push and pop, the link's queue
    decision, packet construction — which carry [[@inline]] in
    [lib/sim], [lib/net], [lib/tcp] and [lib/tfrc], so that a clock
    value or event time stays unboxed through them: a float passed to
    an out-of-line call is boxed. [make opaque-check] fails if those
    calls stop being inlined.

    [probes] is the run's telemetry probe set: the engine registers
    [sim.events_scheduled] (the heap's ticket counter: one per schedule
    and per arm), [sim.events_fired] ([processed]),
    [sim.events_discarded] ([discarded]: popped entries of disarmed
    timers, and orphans), the [sim.queue_depth] level (stale timer
    entries and lane entries included) and the wheel's counts, and every
    component built on the engine adds its own.

    [lanes] are the lanes pushed on this engine, in first-push order;
    [lane_min] is the index in [lanes] of the non-empty one with the
    earliest (time, ticket) head, or -1 when all are empty (an int, so
    moving it pays no write barrier); [lane_count] is their queued
    entries. *)

val create : unit -> t
(** Every bounded-horizon event not on a {!lane} rides a two-level
    hierarchical {!Timing_wheel}; the binary heap ([queue]) holds only
    overflow events (far future, non-finite, or behind the wheel's
    cursor). The wheel and the lanes draw tie-break tickets from the
    heap's sequence counter and the run loop extracts by exact
    (time, seq), so the dispatch order is the one a pure binary heap
    would produce. *)

val now : t -> float
(** The simulated time: of the event firing now, or of the last one
    fired; [until] after a run stopped at its horizon. *)

val processed : t -> int
val pending : t -> int

val set_advance_hook : t -> (float -> unit) option -> unit
(** Install (or clear) a continuous-state advance hook: called with the
    event's time immediately before every live event fires, after the
    clock has advanced to it. Used by the hybrid packet/fluid
    bottleneck to integrate the fluid background up to each packet
    event. The hook must not schedule, arm, disarm, or mutate engine state —
    it exists to advance co-simulated continuous state, so installing
    one whose effects are invisible to the event population leaves the
    run bit-identical (the unused-hook cost is one branch per event). *)

val set_sampler : t -> period:float -> (float -> unit) -> unit
(** Install a sim-time telemetry sampler: whenever a live event's time
    reaches the next multiple-of-[period] boundary past the install
    time, the sampler is called once with that boundary (before the
    event's hook and thunk run), and boundaries the event jumped over
    are skipped — one sample per crossing event. Because boundaries
    are pure functions of install time and event times, the sample
    sequence is deterministic and independent of pool scheduling,
    which is what makes sim-time-cadenced telemetry streams
    [-j1]-vs-[-jN] byte-identical. The sampler must not schedule, arm
    or disarm (it observes; it does not participate — and it draws
    no tie-break tickets, so installing one never perturbs the run).
    Cost when no boundary is crossed: one float compare per event.
    Raises [Invalid_argument] unless [period > 0] and finite. *)

val clear_sampler : t -> unit

val schedule_unit : t -> at:float -> (unit -> unit) -> unit
(** Schedule a one-shot event that is never stopped or moved: an event
    the wheel accepts allocates no record at all. Raises
    [Invalid_argument] if [at] is in the past or NaN. *)

val schedule_after_unit : t -> delay:float -> (unit -> unit) -> unit
(** Raises [Invalid_argument] if [delay] is negative or NaN — a
    negative delay would otherwise schedule into the simulated past. *)

(** {2 Lanes}

    A lane carries a stream of unit events whose times never decrease
    in push order and which all run one action, such as a link's
    service completions (one at a time) and its deliveries (a constant
    delay after service). Its entries are a FIFO ring of
    (time, ticket): a push appends, and only the head can be the next
    event, so the stream never touches the timing wheel.

    A lane entry dispatches exactly as the same event given to
    {!schedule_unit} at the same moment would: {!lane_push} draws its
    ticket from the shared counter at the point [schedule_unit] does,
    and the run loop merges the earliest lane head with the wheel and
    heap minima by (time, ticket). A lane entry that fires is a normal
    event — it moves [now], counts in [sim.events_fired] and
    [sim.queue_depth], calls the sampler and the advance hook, and
    obeys [until] and the budgets. A lane belongs to the engine it is
    first pushed on: pushing it on another engine while it is empty
    raises [Invalid_argument]. *)

val lane : (unit -> unit) -> lane
(** An empty lane whose entries run the action. *)

val lane_push : t -> lane -> at:float -> unit
(** Queue one entry at [at]. Raises [Invalid_argument] if [at] is in
    the past or NaN, earlier than the lane's last queued entry, or the
    lane is empty and belongs to another engine. *)

val lane_is_empty : lane -> bool
(** Whether the lane has no queued entry. *)

(** {2 Timers}

    A timer is allocated once by its owner and armed, re-armed and
    disarmed any number of times; arming allocates nothing. It fires
    exactly as if every arm were a fresh one-shot schedule and every
    re-arm or disarm cancelled the previous one:

    - {b Ticket at arm.} Each arm draws its tie-break ticket from the
      shared counter at arm time and stores it with the deadline, so the
      timer fires at (deadline, ticket) of its last arm — the slot an
      eager cancel-and-reschedule would have given it — and
      [sim.events_scheduled] counts arms like schedules.
    - {b Deferred re-insert.} A timer has at most one live queued entry,
      never later than its deadline. Re-arming to a deadline no earlier
      than that entry moves only the stored (deadline, ticket); when the
      entry pops early it re-inserts itself there (on the wheel when it
      fits, else on the overflow heap under the same ticket).
    - {b Orphans.} Re-arming to an earlier deadline queues a fresh live
      entry; the timer records that entry's ticket, and the old entry,
      whose ticket no longer matches, is an orphan discarded when it
      pops.
    - {b No side effects from stale pops.} A re-insert, an orphan, or an
      entry of a disarmed timer does not advance [now], count as fired,
      or call the sampler or the advance hook; orphans and disarmed
      entries count in [sim.events_discarded].

    A timer belongs to the engine it is first armed on. *)

val timer : (unit -> unit) -> timer
(** A disarmed timer that runs the action when it expires. *)

val arm : t -> timer -> at:float -> unit
(** Arm (or re-arm) the timer to fire at [at], replacing any earlier
    arm. Raises [Invalid_argument] if [at] is in the past or NaN. *)

val arm_after : t -> timer -> delay:float -> unit
(** [arm] at [now + delay]. Raises [Invalid_argument] if [delay] is
    negative or NaN. *)

val disarm : timer -> unit
(** O(1); the timer will not fire until armed again. A no-op on a
    disarmed timer. *)

val armed : timer -> bool
(** Whether the timer is armed and has not fired since. A timer is
    disarmed before its action runs, so the action may re-arm it. *)

val schedule : t -> at:float -> (unit -> unit) -> timer
(** A fresh timer armed once at [at]; keep it to {!disarm} the event.
    Callers that never stop the event use {!schedule_unit}. *)

val schedule_after : t -> delay:float -> (unit -> unit) -> timer

type stop_reason = Queue_empty | Horizon_reached | Budget_exhausted | Stopped

val stop : t -> 'a
(** Abort the current [run] from inside an event handler. *)

(** {2 Watchdog budgets}

    Opt-in guards for hung or runaway simulations: a sim-time budget
    bounds how far simulated time may advance within one [run] call,
    and a wall-clock budget bounds real elapsed time (checked every
    1024 events). Exceeding either raises {!Budget_exceeded}; the
    engine is left in a consistent state — [now] at the last fired
    event, [processed] accurate — so partial statistics can be
    salvaged. Budgets never perturb a run that stays within them, so
    they are orchestration guards, not simulation parameters (and are
    deliberately excluded from the result-cache key). *)

type budget_kind = Sim_time | Wall_clock

exception
  Budget_exceeded of {
    kind : budget_kind;
    budget : float;  (** the configured budget, seconds *)
    at : float;
        (** [Sim_time]: the sim time of the event that would have
            exceeded the budget; [Wall_clock]: elapsed wall seconds *)
    events : int;    (** events processed when the budget tripped *)
  }

val parse_budget : what:string -> string -> (float, string) result
(** Parse a budget in seconds: a positive finite float. The error
    message names the budget kind [what] (["sim-time"] or
    ["wall-clock"]); the CLI's [--sim-budget]/[--wall-budget] flags use
    it. *)

val set_sim_budget : float option -> unit
(** Process-wide default sim-time budget per [run] call, used when the
    call passes no explicit [?sim_budget] (initially [None]; the [ebrc]
    CLI sets it from [--sim-budget]). [None] disables. Raises
    [Invalid_argument] on non-positive budgets. *)

val set_wall_budget : float option -> unit
(** Same for the wall-clock budget ([--wall-budget]). *)

val run :
  ?until:float -> ?max_events:int -> ?sim_budget:float ->
  ?wall_budget:float -> t -> stop_reason
(** Drain the queue until empty, the time horizon, or the event budget.
    A horizon-interrupted run can be resumed with a later [until].
    [?sim_budget]/[?wall_budget] override the process-wide watchdog
    defaults for this call; see {!Budget_exceeded}. On return — and
    on any exception — the call's growth of [probes] is absorbed into
    the process-wide telemetry totals (when telemetry is on). *)
