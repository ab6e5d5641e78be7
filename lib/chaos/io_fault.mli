(** Deterministic fault-injecting I/O shim for chaos testing the sweep
    service (queue writes, lease files, store publication).

    Off by default: every hook below is a single [ref] load and a
    branch, and with no seed set each hook is byte-for-byte equivalent
    to the plain operation it wraps — [write] is [output_string],
    [now] is [Unix.gettimeofday], the guards are no-ops. Enabled by
    [set_seed]; the [ebrc] CLI's [--chaos SEED] arms it with any integer
    seed, 0 included.

    When enabled, faults are scheduled from a dedicated
    {!Ebrc_rng.Prng.stream} under the chaos seed — the same discipline
    as the packet-level [Fault] module — so a chaos run is
    bit-reproducible: the same seed over the same operation sequence
    injects the same faults. The fault classes:

    - EIO / ENOSPC raised (as [Sys_error]) on file open and rename;
    - torn writes: a prefix of the content is written, then the write
      raises — models a writer dying mid-[write(2)];
    - lost fsync: the durability barrier is silently skipped;
    - clock skew: [now] occasionally returns a time up to ±30 s off,
      exercising lease-deadline disagreement between workers.

    Call sites must treat any [Sys_error] from a guarded operation as
    a (retryable) I/O failure; the queue and store already do. *)

val set_seed : int option -> unit
(** [Some seed] arms the shim and resets the fault schedule and
    {!stats}; [None] disarms it. *)

val seed : unit -> int option
(** The active chaos seed, if armed. *)

val enabled : unit -> bool

val guard_open : string -> unit
(** Call before creating/opening a file for writing: raises an
    injected EIO or ENOSPC [Sys_error] naming the path, or returns. *)

val guard_rename : string -> unit
(** Call before an atomic-publish rename: may raise an injected EIO. *)

val write : out_channel -> string -> unit
(** [output_string], except an injected fault may raise before writing
    anything (EIO) or after writing only a flushed prefix (torn
    write). Chaos off: exactly [output_string]. *)

val maim : string -> string
(** Possibly-truncated copy of [content] for writers that must not
    raise (lease bodies under O_EXCL): an injected torn write returns
    a proper prefix, otherwise the string is returned unchanged. *)

val fsync : out_channel -> unit
(** Durability barrier for just-written records. Chaos off: a no-op
    (the atomic-rename discipline never needed fsync for consistency).
    Chaos on: flush, then fsync — except when the schedule injects a
    lost fsync, modelling data sitting in the page cache. *)

val publish : tmp:string -> string -> string -> unit
(** [publish ~tmp path content], the one durable publish path: check
    {!guard_open} on [tmp], create it, {!write} [content], {!fsync},
    check {!guard_rename} on [path], then rename [tmp] over [path]. A
    reader sees the old file or the whole new one, never a prefix.
    Raises [Sys_error] on an injected or real failure, possibly leaving
    [tmp] behind; callers choose [tmp] so they can reclaim it. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents; a directory that
    appears concurrently is fine. *)

val read_file : string -> string option
(** A whole file's bytes; [None] when it cannot be read. *)

val now : unit -> float
(** [Unix.gettimeofday], skewed by up to ±30 s when the schedule
    injects clock skew. Feed lease deadlines and expiry checks through
    this. *)

type stats = {
  eio : int;  (** injected EIO faults (open/write/rename) *)
  enospc : int;  (** injected ENOSPC faults on open *)
  torn_writes : int;  (** writes truncated mid-content *)
  fsync_lost : int;  (** durability barriers silently skipped *)
  clock_skews : int;  (** skewed [now] readings *)
}

val stats : unit -> stats
(** Faults injected since the last [set_seed] or telemetry reset: the
    [chaos.*] telemetry counters, read as a record. All zero (and
    staying zero) when the shim is off — pinned by tests as the
    structural zero-overhead contract. *)
