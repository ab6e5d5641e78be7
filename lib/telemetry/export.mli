(** Telemetry sinks: JSON-lines dump, Chrome [trace_event] file, and a
    human-readable summary.

    The JSONL dump is one self-describing object per line (a ["meta"]
    line, then one line per metric, span and event), so it streams
    into jq / pandas without a schema. The Chrome trace is the JSON
    object format loadable in chrome://tracing or ui.perfetto.dev:
    spans become complete ("X") slices on the wall-clock process
    (pid 1), structured events become instant ("i") marks on the
    simulated-time process (pid 2, simulated seconds rendered as
    trace seconds). *)

val write_jsonl : path:string -> unit -> unit

val write_chrome_trace : path:string -> unit -> unit

val summary : unit -> string
(** Pretty-printed table of every registered metric with non-zero
    activity (histograms include interpolated p50/p90/p99), plus span
    and event totals. *)

(** {1 JSON building blocks}

    Shared by the streaming and flight-recorder sinks so every
    observability file speaks the same dialect. *)

val num : float -> string
(** Round-trippable double rendering ([%.17g], integral values
    trimmed); non-finite floats become [null]. *)

val metric_line : Buffer.t -> Telemetry.snapshot -> unit
(** Append one metric's JSONL line (newline included). *)

val span_line : Buffer.t -> Telemetry.span -> unit
val event_line : Buffer.t -> Telemetry.event -> unit
