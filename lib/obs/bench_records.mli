(** Locating and time-ordering `BENCH_*.json` perf records.

    Two filename shapes coexist historically: day-only
    ([BENCH_2026-08-05.json], from before bench runs were timestamped)
    and full UTC ([BENCH_2026-08-05T141802Z.json]). Ordering
    lexicographically by filename happens to work only because of the
    shapes' shared prefix — and silently breaks for any third shape —
    so record order is derived from the {e embedded timestamp}
    instead: day-only files normalise to midnight UTC, records without
    a recognisable timestamp sort last (with a warning) in filename
    order. *)

val timestamp_of_filename : string -> string option
(** [Some "YYYY-MM-DDTHHMMSSZ"] for the two known shapes (day-only
    normalises to ["T000000Z"]); [None] otherwise. Input is a base
    name, not a path. *)

type record = {
  file : string;  (** base filename *)
  ts : string option;  (** normalised timestamp, [None] when missing *)
  json : Json.t;
}

val list_ordered : dir:string -> string list * string list
(** [(files, warnings)]: all [BENCH_*.json] base names in [dir] in
    timestamp order (ties and missing timestamps break by filename;
    missing-timestamp files last), plus one warning per file whose
    name carries no recognisable timestamp. *)

val regression_threshold : float
(** The regression rule of bench-compare (newest record against the
    previous one) and [ebrc bench-trend] (last against best): a
    hot-path timing regressed when it exceeds its baseline by more
    than this fraction (0.20)... *)

val noise_floor_ns : float
(** ...and the baseline is at least this many ns per run (1 ms).
    Below it, run-to-run noise routinely exceeds the threshold, so a
    slower timing is reported but never flagged. *)

val load_all : dir:string -> record list * string list
(** {!list_ordered}, with each record parsed. Unreadable or
    unparsable files are dropped with a warning. *)
