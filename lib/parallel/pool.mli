(** Fixed-size OCaml 5 domain pool for embarrassingly parallel sweeps.

    The experiment layer runs large grids of independent simulations
    (the leaves of a figure or validation batch). This pool fans such
    grids out over [domains] domains, each domain taking the next task
    index from a shared atomic cursor.

    Determinism contract: [try_init]/[init] write each task's result into
    the slot of its task index, and every stochastic task must derive
    its own generator from its index (see {!Ebrc_rng.Prng.stream}), so
    the output is bit-identical to the sequential run regardless of
    pool size or scheduling order. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains (the
    caller participates in every job, so [domains] is the total
    parallelism). [domains] defaults to
    [Domain.recommended_domain_count ()] and is
    clamped to at least 1; a pool of 1 spawns nothing and runs every
    job inline. *)

(** {2 Crash isolation}

    Every task runs under a per-task exception barrier: a crashing
    task never aborts its siblings, and all sibling results are
    preserved. {!try_init} exposes the per-task [result]s directly;
    {!init} is built on it and raises {!Task_failed} carrying the
    lowest failing index (deterministic, unlike a first-observed
    race), its attempt count, and the original exception + backtrace. *)

type task_error = {
  t_index : int;       (** task index within the job *)
  t_attempts : int;    (** attempts made, including the failing one *)
  t_exn : exn;         (** the original exception *)
  t_backtrace : Printexc.raw_backtrace;
}

exception Task_failed of task_error

val try_init :
  ?retries:int -> t -> int -> (int -> 'a) -> ('a, task_error) result array
(** Crash-isolated parallel [Array.init]: task [i] yields [Ok] of its
    value or [Error] describing its final failure; siblings always run
    to completion. [retries] (default 0) re-runs a failing task up to
    that many extra times. *)

val run_isolated :
  ?retries:int -> t -> (unit -> 'a) -> ('a, task_error) result
(** One task under the same per-task exception barrier as {!try_init}:
    [Ok] of the value or [Error] describing the final failure, with
    [retries] extra attempts. It serves callers (the sweep-service
    worker) whose unit of work is not a sweep index. *)

val init : t -> int -> (int -> 'a) -> 'a array
(** Parallel [Array.init]. Tasks are crash-isolated: if any raise, the
    whole job still drains, then {!Task_failed} for the lowest failing
    index is raised in the caller; the pool remains usable. *)

val shutdown : t -> unit
(** Join all workers. Idempotent; using the pool afterwards raises
    [Invalid_argument]. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] with a fresh pool and shuts it
    down afterwards, whether [f] returns or raises. *)

val shared : ?domains:int -> unit -> t
(** A process-wide pool of the given size, spawned on first use and
    reused by every subsequent call with the same [domains] (workers
    stay parked between jobs, so repeated sweeps pay the domain-spawn
    cost once instead of per sweep). Shut down automatically at
    process exit; do not call {!shutdown} on it — a closed shared
    pool is replaced on the next call. *)
