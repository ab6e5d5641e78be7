(** Markdown report generator: run a subset of the figure registry and
    render one self-contained document (tables, notes, total time). The
    selected figures run as one {!Figures.run_batch}. *)

type options = {
  ids : string list;   (** Figure ids to include; empty = whole registry. *)
  quick : bool;
  heading : string;
  jobs : int option;
      (** Domains for the report's one figure batch; [None] = sequential. *)
  keep_going : bool;
      (** When true, a raising runner or an unknown id renders as a
          FAILED section (and a trailing failure summary) instead of
          aborting the report. *)
}

val default_options : options
(** [keep_going] defaults to false. *)

val generate : ?options:options -> unit -> string
(** Render the report as a markdown string. *)

val generate_result :
  ?options:options -> unit -> string * Figures.failure list
(** Like {!generate} but also returns the structured failures collected
    in keep-going mode (always empty when [keep_going] is false, since
    the first failure raises). *)

val save_result :
  ?options:options -> path:string -> unit -> Figures.failure list
(** Write the report and return the keep-going failures so callers can
    reflect them in the exit code. *)
