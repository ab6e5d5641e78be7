(** Reader for live telemetry stream files (the `ebrc status` view):
    parses the JSONL records `Ebrc_telemetry.Stream` writes and folds
    them into one progress snapshot — per-run delta cursors, figure
    lifecycle, pool counters with an ETA from the completed-task rate.
    Tolerant of a file being mid-write: a torn final line (or any
    unparsable line) is skipped, everything before it still counts. *)

type run_row = {
  run_key : string;
  seq : int;  (** last delta seq seen *)
  t_sim : float;  (** last sampled simulated time *)
  events : int;  (** summed d_events *)
  pending : int;  (** last event-queue depth *)
  ended : bool;
  run_ok : bool;  (** meaningful when [ended] *)
}

type figure_row = {
  fig_id : string;
  phase : string;  (** latest of start/done/failed *)
  t_start : float;  (** wall clock of the start record; [nan] unseen *)
  t_last : float;  (** wall clock of the latest record *)
  tables : int;  (** from the done record; 0 otherwise *)
}

type view = {
  manifest : (string * string) list;
      (** cmd plus attrs of the latest manifest record, values
          re-rendered as strings *)
  runs : run_row list;  (** stream order *)
  figures : figure_row list;  (** stream order *)
  tasks : figure_row list;
      (** sweep-service task lifecycle records ([task] type), one row
          per task digest; [phase] is the latest of
          leased/done/failed and [t_start] anchors at the lease *)
  counters : (string * int) list;
      (** totals from the latest progress record *)
  event_rate : float;  (** d sim.events_fired / d t_wall; [nan] unknown *)
  task_rate : float;  (** d pool.tasks / d t_wall; [nan] unknown *)
  eta : float;
      (** (tasks_submitted - tasks) / task_rate, seconds; [nan]
          unknown *)
  t_progress : float;  (** wall clock of latest progress; [nan] none *)
  finished : bool;  (** a stream_end record was seen *)
  skipped : int;  (** unparsable lines (usually a torn tail) *)
}

val of_lines : string list -> view

(** {1 Incremental reading}

    For the sweep supervisor, which polls each worker's growing stream
    file: feed it only the bytes appended since the last poll. *)

type tail
(** A fold over a byte stream: every complete line is folded once,
    the bytes after the last newline are held for the next {!feed}.
    It keeps only what the supervisor's progress line shows. It folds
    [task], [progress] and [stream_end] records, and skips every other
    record by its type tag (the first field every stream writer
    prints) without decoding it. *)

val tail : unit -> tail
(** An empty fold. *)

val feed : tail -> string -> unit
(** Append bytes (any chunking, lines may span calls). *)

val tail_view : tail -> view
(** The view of every byte fed so far. Its [tasks], [counters],
    [event_rate], [task_rate], [eta], [t_progress] and [finished]
    equal those of {!read_file} of a file holding those bytes (a
    pending partial last line is read as {!read_file} reads it); its
    [runs], [figures] and [manifest] stay empty. *)

val merge : view list -> view
(** Fold per-worker views into one fleet snapshot (the serve watcher
    reads one stream file per worker): counters sum by key, row lists
    concatenate (workers never share a task digest — leases are
    exclusive), rates sum over the workers that report one, [eta] and
    [t_progress] take the max, and the fleet is [finished] only when
    every member is. [merge []] is the empty view. *)

val read_file : string -> (view, string) result
(** {!of_lines} over the file's lines; [Error] when unreadable. *)

val render : view -> string
(** Human-readable live view. *)

val to_json : view -> Json.t
(** Machine-readable form of the view (for [--once]); non-finite
    rates and times print as [null]. *)
