(** The sweep-service worker loop behind [ebrc worker]: lease tasks
    from a {!Task_queue}, run each scenario crash-isolated, publish the
    result into the shared content-addressed store, and stream [task]
    lifecycle records for `ebrc status` / the serve watcher.

    Workers are horizontally scalable and interchangeable: any number
    of processes (on any machine sharing the queue and store
    directories) can point at the same queue. Identity of work is the
    config digest, publication is atomic and deterministic, so a task
    run twice — e.g. around an expired lease, or when a run outlives
    its lease [ttl] — wastes time but publishes identical bytes. *)

type config = {
  queue_dir : string;
  store_dir : string;
  worker_id : string;  (** recorded in lease files and failure records *)
  ttl : float;
      (** lease lifetime, seconds. A worker SIGKILL'd mid-task delays
          that one task by at most [ttl] before another worker
          reclaims it. Should exceed the longest expected single run;
          a run that outlives its lease is merely re-runnable, not
          wrong. *)
  retries : int;  (** extra in-process attempts per crashing task *)
  poll : float;
      (** cap on the rescan sleep when everything pending is leased
          (see {!rescan_period}); also the idle sleep under
          [exit_when_drained = false] *)
  max_tasks : int option;  (** stop after this many executed tasks *)
  exit_when_drained : bool;
      (** return once the queue has no task files left; otherwise keep
          polling for new work forever *)
}

val default : queue_dir:string -> config
(** [worker_id] = ["w<pid>"], [ttl] = 300s, [retries] = 1,
    [poll] = 0.2s, no task cap, [exit_when_drained = true];
    [store_dir] = [<queue_dir>/store]. *)

(** The growth of the process-wide [worker.tasks_*] telemetry counts
    over one {!run} call, so one worker runs per process at a time
    (the [ebrc worker] command). *)
type outcome = {
  ran : int;  (** tasks simulated and published by this worker *)
  cached : int;
      (** tasks completed by store lookup alone (already published —
          the resume path) *)
  failed : int;  (** tasks this worker marked terminally failed *)
}

val rescan_period : cap:float -> service:float option -> float
(** The rescan sleep while every pending task is leased by a live
    peer: [cap] before any service-time sample ([service = None]),
    otherwise [service / 8], at least 0.002 and at most [cap] (the cap
    wins when it is below 2 ms). [service] is
    the worker's EWMA (weight 1/4) of its own claim→complete wall
    time. *)

val run : config -> outcome
(** Run the lease/execute/publish loop until the queue drains (or
    forever, per [exit_when_drained]). Startup reclaims stale store
    tmp files ({!Ebrc_exp.Result_cache.gc_tmp}, age threshold
    [2 × ttl]). Each simulated task's [done] stream record carries
    [compute_s] (the scenario run, retries included) and [publish_s]
    (store write plus read-back verification), in wall seconds.
    Never raises on task failure — crashing tasks are
    retried then recorded under [failed/], with a {!Flight} dump
    (digest, attempt count, chaos seed) when the recorder is armed.

    Publication is read-back verified: after [store_to] the record
    must load and key-verify from the store; a publication that never
    verifies (full disk, injected chaos faults) first hands the task
    back for a clean re-run, then fails it terminally — it is never
    "completed" with an empty store slot. *)
