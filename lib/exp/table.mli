(** Plain-text, CSV and markdown rendering for experiment output. *)

type t

val create : title:string -> header:string list -> t
val add_row : t -> string list -> t
(** Raises on column-count mismatch. *)

val add_note : t -> string -> t

val cell_float : ?decimals:int -> float -> string

val to_string : t -> string
val print : t -> unit
val to_csv : t -> string

val to_markdown : t -> string
(** GitHub-flavoured markdown: the title as a level-3 heading, the
    table, then each note as a quote. Cells are written verbatim. *)

val save_csv : t -> path:string -> unit
