(** The sweep-service front end behind [ebrc serve]: load a manifest,
    prime the task queue with every config not already published in
    the content-addressed store, spawn and {e supervise} a fleet of
    worker processes, and watch the store until the sweep drains.

    Wake model: each spawned worker's stdout is a pipe to the
    supervisor, which blocks in [select] on those pipes with [poll] as
    the timeout. A worker's output is forwarded unchanged; its EOF
    means the worker is exiting, so it is reaped at once and the
    completion check runs. Workers exit when the queue drains, so the
    end of a sweep is detected at the last worker's exit, not at the
    next timer tick.

    Because enqueueing consults the store first, sweeps are resumable
    and incremental for free: re-serving a manifest over a partial
    store enqueues only the missing tasks, and a fully published
    manifest returns immediately (the warm-resume path).

    Supervision (all of it driven off artifacts the fleet already
    produces — stream files, lease files, the store):

    - {b Heartbeats}: each spawned worker streams task/progress records
      to [streams/worker-<i>.jsonl]; growth of that file is the
      heartbeat. A worker silent past the [watchdog] TTL is presumed
      hung, SIGKILLed, and its leases reclaimed.
    - {b Restarts}: dead workers are respawned under exponential
      backoff (0.5 s doubling, capped at 15 s). A slot that keeps
      dying with no fleet-wide publication progress is retired.
    - {b Crash-loop circuit breaker}: each worker death strikes the
      digests it held leases on; a digest that takes [max_strikes]
      workers down is {e poisoned} ([poisoned/<digest>.json]) and
      dequeued, so one deadly task costs itself, not the sweep.
      Re-serving the manifest clears poison verdicts (a retry).
    - {b Exit taxonomy}: completion reports clean completions,
      restarts, stall kills, chaos kills, strikes and poisonings, and
      the exit code distinguishes complete (0) from degraded (1). *)

type config = {
  manifest_path : string;
  queue_dir : string;
  store_dir : string;
  workers : int;
      (** worker processes to spawn (re-exec of the current
          executable's [worker] subcommand). 0 = prime the queue and
          report without waiting — external workers drain it. *)
  ttl : float;  (** lease lifetime handed to spawned workers *)
  retries : int;  (** per-task retry budget handed to spawned workers *)
  poll : float;
      (** longest wait between supervisor ticks (watchdog, respawn,
          chaos monkey), seconds; a worker exit wakes it sooner *)
  watchdog : float;
      (** stall detector: SIGKILL a worker whose stream has not grown
          for this many seconds. 0 disables stall detection. Must
          comfortably exceed the worker's wall-tick period (0.5 s) —
          the default 120 s does. *)
  max_strikes : int;
      (** worker deaths while holding a digest's lease before that
          digest is poisoned *)
  chaos_kill : int option;
      (** arm the deterministic chaos monkey with this seed: every
          0.5–2 s (drawn from its own {!Ebrc_rng.Prng.stream}) it
          SIGKILLs a random live worker. For chaos soaks only. *)
  quiet : bool;  (** suppress the periodic progress line *)
}

val default : manifest_path:string -> config
(** [queue_dir] = [<manifest_path>.queue], [store_dir] =
    [<queue_dir>/store], [workers] = 2, [ttl] = 300s, [retries] = 1,
    [poll] = 0.25s, [watchdog] = 120s, [max_strikes] = 3, no chaos
    monkey. *)

type progress = {
  total : int;  (** distinct task digests in the manifest *)
  published : int;  (** verified result records in the store *)
  queued : int;  (** task files still present in the queue *)
  leased : int;  (** lease files present (live and expired) *)
  failed : int;  (** terminal failure records *)
  poisoned : int;  (** crash-loop circuit-breaker records *)
}

type watch
(** A serve's view of one manifest's completion: the distinct digests
    (computed once) and the set of digests already counted as
    published. *)

val watch : store_dir:string -> queue:Task_queue.t -> Manifest.t -> watch

val poll : watch -> progress
(** Incremental count: queue state is re-listed, but store records are
    loaded and key-verified only for digests not yet counted as
    published. A record lost after it was counted stays counted until
    the next {!verify}. *)

val verify : watch -> progress
(** Full count: every digest's store record is re-verified and the
    published set rebuilt. The supervisor runs it before declaring a
    sweep settled. *)

val progress : store_dir:string -> queue:Task_queue.t -> Manifest.t -> progress
(** One-shot full count ({!verify} of a fresh {!watch}). *)

val plan : store_dir:string -> queue:Task_queue.t -> Manifest.t -> int
(** Enqueue every manifest task whose result is not already published
    (idempotent), returning how many are outstanding; poison verdicts
    and failure records for re-enqueued digests are cleared. Also reclaims stale store tmp
    files ({!Ebrc_exp.Result_cache.gc_tmp} at its default age; [run]
    uses 2 × ttl so a live peer's in-flight publication is never
    swept). *)

val backoff : int -> float
(** Respawn delay after the [n]-th consecutive worker death (from 0):
    0.5 s doubling, capped at 15 s. Exposed for tests. *)

val run : config -> int
(** The [ebrc serve] entry point; returns the process exit code:
    0 — every task published; 1 — terminal failures, poisoned tasks,
    or the fleet retired with work remaining; 2 — unreadable
    manifest. *)
