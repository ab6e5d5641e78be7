(** Content-addressed scenario result store.

    The key of a config is its {!Codec.encode} bytes — the same bytes
    as its sweep-manifest task — and names an optional on-disk store
    of one record per [MD5(key)], shared across processes: a second
    [report] or [figure] over the same store, or a sweep worker,
    loads what an earlier process published. Within one process,
    {!Work.run} already runs each distinct config of a batch once.
    [Scenario.run] is deterministic in its config, so a hit is
    byte-identical to a fresh run; floats are stored as hex-float
    strings for exact round-trips (including nan/infinity). Safe to
    call from parallel sweep workers.

    A store record is one compact JSON line
    [{"schema":1,"version":<code_version>,"key":<config>,"result":<result>}].
    The version tag is checked on every load: a record written by other
    code reads as a miss (and as "stale version" to {!scrub}). *)

val run : Scenario.config -> Scenario.result
(** Exactly [Scenario.run] when no store is set (see {!set_dir}).
    Otherwise {!load_from}, and on a miss [Scenario.run] then
    {!store_to}. *)

val set_dir : string option -> unit
(** The store's location; [None] (the default) means no store. The
    CLI sets it from [--store DIR]. The directory is created on first
    store. *)

val digest_of_config : Scenario.config -> string
(** Hex MD5 of [Codec.encode cfg] — the on-disk record is
    [<digest>.json] under the cache directory, and the sweep service
    names the task by it. *)

val serialize_result : Scenario.result -> string
(** The exact JSON payload stored on disk; also useful for
    byte-identity checks in tests and benchmarks. *)

(** {2 Store as a service}

    Explicit-directory accessors, used by {!run} with the {!set_dir} store and by the
    multi-process sweep service (lib/serve): workers publish results
    into a shared store and serve watches it for completion. Nothing
    is kept in memory, so a long-running worker stays O(1). *)

val load_from : dir:string -> Scenario.config -> Scenario.result option
(** Load and fully verify (schema, version tag, full key) the record
    for this config; [None] when absent, stale or corrupt. *)

val store_to : dir:string -> Scenario.config -> Scenario.result -> unit
(** Publish a result into [dir] with the atomic tmp+rename discipline.
    A failed write is counted ([cache.store_errors]), never raised; the
    first one counted prints a warning. *)

val published : dir:string -> Scenario.config -> bool
(** [load_from] succeeds — a full verification, so a truncated or
    stale-version record reads as unpublished and gets recomputed. *)

val list_store : dir:string -> string list
(** Digests with a record file present in [dir], sorted; [[]] when the
    directory is unreadable. Presence alone does not imply validity —
    use {!published} per config for that. *)

val gc_tmp : ?max_age:float -> string -> int
(** Unlink stale [.<digest>.<pid>.tmp] files stranded by crashed
    writers, returning how many were reclaimed (also counted on the
    [cache.tmp_reclaimed] telemetry counter). Files younger than
    [max_age] seconds (default 3600) are left alone so a live writer's
    in-flight record survives — sweep callers pass [2 × lease ttl] so
    the threshold always dominates a worker's longest possible
    publication window. Safe on a missing directory. *)

type scrub_report = {
  scrub_checked : int;  (** records examined *)
  scrub_ok : int;  (** records that verified clean *)
  scrub_quarantined : (string * string) list;
      (** digests whose records were moved to quarantine, in store
          order, each with why: ["stale version"], or ["corrupt: "]
          and the parse error (with its offset), the decoder's message
          (naming the field by its path), ["digest mismatch"] or
          ["unreadable"] *)
  scrub_stale : string list;
      (** the quarantined digests whose record is intact but carries
          another version tag than the current code's; the rest of
          [scrub_quarantined] is corrupt *)
  scrub_dir : string;  (** the quarantine directory used *)
}

val scrub : ?quarantine:string -> dir:string -> unit -> scrub_report
(** Verify every record in the store against the digest its file name
    claims: JSON parse, schema number, code-version tag, a key that
    decodes as a config, MD5 of the key's codec bytes, and a full
    result decode. Stale-version, corrupt or truncated records are
    moved — never deleted — into [quarantine] (default
    [dir/quarantine]), so re-serving the manifest recomputes exactly
    the quarantined digests. Adds the report's tallies to the
    [scrub.checked] / [scrub.ok] / [scrub.quarantined] counters. Invariant (property-tested):
    quarantined ∪ surviving = the original record set. *)

type stats = {
  disk_hits : int;   (** {!run}'s disk-record hits (schema + key verified) *)
  misses : int;      (** {!run}'s store misses (full simulation runs) *)
  stores : int;      (** disk records written *)
  corrupt : int;     (** unreadable/mismatched disk records ignored *)
  store_errors : int;
      (** failed disk writes (unwritable store directory, full disk),
          counted per failure ([cache.store_errors]) and warned on the
          first; the run returns its result instead of raising
          mid-figure. *)
}

val stats : unit -> stats
(** The [cache.*] telemetry counters of the same names, read as a
    record. Zeroed by a telemetry reset. *)
