(** Sweep manifests: the canonical on-disk description of an ensemble
    of scenario runs for the multi-process sweep service.

    A manifest is a JSON object

    {v
    {"schema":1,"codec":"ebrc-manifest-v1","tasks":[
    <task>,
    ...
    ]}
    v}

    where each [<task>] line is {!Ebrc_exp.Codec.encode} of a complete
    {!Ebrc_exp.Scenario.config}. Those bytes are also the task's
    {!Ebrc_exp.Result_cache} key, so its digest
    ({!Ebrc_exp.Result_cache.digest_of_config}) is identical on every
    machine that loads the manifest. The task list is ordered, but
    order only affects scheduling preference: task identity is the
    digest, so duplicated configs collapse to one result record. *)

type t = { tasks : Ebrc_exp.Scenario.config list }

val to_json : t -> string
(** Canonical rendering: loading and re-saving a manifest is
    byte-identical. *)

val of_json : string -> (t, string) result
(** The error names the offending field, e.g.
    ["tasks[2].queue.capacity: expected an integer"]. *)

val save : path:string -> t -> unit
(** Publishes {!to_json} through {!Ebrc_chaos.Io_fault.publish}: a
    reader sees the previous manifest or the whole new one. Raises
    [Sys_error] on failure, leaving the previous manifest in place. *)

val load : path:string -> (t, string) result
(** Reads through {!Ebrc_chaos.Io_fault.read_file} and decodes with
    {!of_json}. *)

val demo : ?seed0:int -> ?duration:float -> tasks:int -> unit -> t
(** A small self-contained manifest for demos, CI and the bench:
    [tasks] scaled-down dumbbell configs (1 TFRC + 1 TCP flow,
    alternating DropTail/RED, consecutive seeds from [seed0], default
    42) of [duration] simulated seconds (default 10). *)
