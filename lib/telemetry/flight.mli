(** Flight recorder: on an abnormal end (engine budget exhaustion, a
    failed pool task, an uncaught scenario exception) dump what the
    telemetry layer was seeing — recent stream lines, the merged
    metric snapshot, spans, and the most recent structured events — to
    a self-contained `flight-<ts>-<pid>-<n>.jsonl` postmortem file.

    Off by default; when off, {!on_exn} is one atomic load. Dump
    failures are swallowed (a postmortem must never mask the original
    exception), and consecutive {!on_exn} calls carrying the {e same}
    exception value produce one dump — the engine, the figure runner
    and the CLI wrapper may all see one exception on its way up. *)

val set_enabled : bool -> unit

val set_dir : string -> unit
(** Directory for dump files (default ["."]). *)

val on_exn : reason:string -> ?attrs:(string * string) list -> exn -> unit
(** Record a dump for [exn] if the recorder is active and this exact
    exception value was not already dumped. [reason] names the trigger
    site (e.g. ["engine.budget"], ["figure"], ["cli"]); [attrs] are
    extra string fields rendered into the dump's header line (the
    sweep worker records the task digest, attempt count and chaos seed
    so a failure is replayable offline). Never raises. *)

val last_dump : unit -> string option
(** Path of the most recent dump, if any. *)
