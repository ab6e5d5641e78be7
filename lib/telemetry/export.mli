(** Telemetry sinks: JSON-lines dump, Chrome [trace_event] file, and a
    human-readable summary.

    The JSONL dump is one self-describing object per line (a ["meta"]
    line, then one line per metric, span and event), so it streams
    into jq / pandas without a schema. The Chrome trace is one compact
    JSON object (one line) in the format loadable in chrome://tracing
    or ui.perfetto.dev: spans become complete ("X") slices on the wall-clock process
    (pid 1), structured events become instant ("i") marks on the
    simulated-time process (pid 2, simulated seconds rendered as
    trace seconds). Every record is a {!Ebrc_obs.Json.t} rendered by
    [Json.print]: floats in shortest round-trip form, non-finite ones
    as [null]. *)

val write_jsonl : path:string -> unit -> unit

val write_chrome_trace : path:string -> unit -> unit

val summary : unit -> string
(** Pretty-printed table of every registered metric with non-zero
    activity (histograms include interpolated p50/p90/p99), plus span
    and event totals. *)

(** {1 Records}

    Shared with the flight recorder, so its postmortem file speaks the
    same dialect as the JSONL dump. *)

val add_line : Buffer.t -> Ebrc_obs.Json.t -> unit
(** Append [Json.print] of the record and a newline. *)

val metric : Telemetry.snapshot -> Ebrc_obs.Json.t
(** One metric's JSONL record. *)

val span : Telemetry.span -> Ebrc_obs.Json.t
val event : Telemetry.event -> Ebrc_obs.Json.t
