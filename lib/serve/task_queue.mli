(** On-disk task queue for the multi-process sweep service.

    Layout under the queue root:

    {v
    tasks/<digest>.json     one task spec (a Manifest task object)
    leases/<digest>.lease   O_EXCL claim file: worker id, pid, deadline
    failed/<digest>.json    terminal failure record
    poisoned/<digest>.json  crash-loop circuit-breaker record
    streams/                per-worker telemetry JSONL (by convention)
    v}

    Claiming is an [O_CREAT|O_EXCL] create of the lease file — the
    filesystem arbitrates, so exactly one of any number of concurrent
    claimants wins. Leases carry an absolute wall-clock deadline: an
    expired lease is reclaimable, so a SIGKILL'd worker costs one
    lease timeout, not the sweep. Reclaim renames the expired lease to
    a private name first (rename is atomic; exactly one reclaimer
    succeeds, the loser gets ENOENT) and then re-claims through the
    same O_EXCL path.

    Failure model: leases are a work-avoidance mechanism, not a
    correctness mechanism. Correctness comes from the content-addressed
    store — results are published by atomic rename under a key that is
    a pure function of the config, and the simulator is deterministic,
    so the rare double-execution around an expired lease wastes time
    but publishes byte-identical bytes. *)

type t

val default_torn_grace : unit -> float
(** [EBRC_LEASE_GRACE] in seconds (unset or empty: 10 s).
    @raise Invalid_argument naming [EBRC_LEASE_GRACE] when that is not
    a finite number of seconds >= 0. *)

val create : ?torn_grace:float -> dir:string -> unit -> t
(** Open (creating directories as needed) the queue rooted at [dir].
    [torn_grace] is the mtime grace period for unparsable (torn) lease
    files before they read as expired; default
    {!default_torn_grace}. *)

val streams_dir : t -> string

val torn_grace : t -> float
(** The effective torn-lease grace for this queue handle. *)

val enqueue : t -> digest:string -> spec:string -> unit
(** Write [tasks/<digest>.json] atomically (tmp+rename). Idempotent:
    an existing task file is left in place. *)

val pending : t -> string list
(** Digests with a task file present, sorted. *)

val read_spec : t -> digest:string -> string option

type claim_outcome =
  | Claimed
  | Busy  (** a live (unexpired) lease exists, or we lost the race *)
  | Gone  (** no task file — already completed or failed *)

val claim : t -> worker:string -> ttl:float -> digest:string -> claim_outcome
(** Try to lease the task for [ttl] seconds. *)

val release : t -> digest:string -> unit
(** Drop our lease without completing the task (it becomes immediately
    claimable again). *)

val complete : t -> digest:string -> unit
(** Remove the task file and lease after the result was published. *)

val fail : t -> worker:string -> digest:string -> message:string -> unit
(** Record a terminal failure ([failed/<digest>.json]) and dequeue the
    task so the sweep can drain. *)

val failed : t -> (string * string) list
(** [(digest, message)] of terminally failed tasks, sorted. *)

val clear_failed : t -> digest:string -> unit
(** Remove a failure record (re-serving a manifest retries the
    task). *)

val poison : t -> digest:string -> message:string -> unit
(** Record a crash-loop circuit-breaker verdict
    ([poisoned/<digest>.json]) and dequeue the task: used by the serve
    supervisor when the same digest keeps killing worker processes, so
    the sweep drains around it instead of crash-looping forever. *)

val poisoned : t -> (string * string) list
(** [(digest, message)] of poisoned tasks, sorted. *)

val clear_poison : t -> digest:string -> unit
(** Remove a poison verdict (re-serving a manifest counts as the
    operator retrying the task). *)

val leased : t -> int
(** Number of lease files present (live and expired alike). *)

val lease_holders : t -> (string * string) list
(** [(digest, worker-id)] for every parsable lease file, sorted by
    digest; torn leases are omitted (their holder is unknowable). *)

val reclaim_worker : t -> worker:string -> string list
(** Release every lease held by [worker], returning the digests freed.
    Safe only once that worker process is known dead (the supervisor
    calls this after SIGKILL + reap) — otherwise it would merely
    re-open the benign double-execution window. *)
