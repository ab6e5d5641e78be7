(** One runner per paper figure/table. [quick] shrinks grids and run
    lengths (benchmark mode); full mode reproduces the paper-scale
    sweeps. The experiment index lives in DESIGN.md, the
    paper-vs-measured record in EXPERIMENTS.md.

    A runner runs nothing: it declares its scenario runs and seeded
    tasks as {!Work.t} and projects them to tables. {!run_batch} runs
    the work of any set of runners as one deduplicated pool job over
    [jobs] domains (default 1); every leaf derives its PRNG from its
    own coordinates, so the tables are byte-identical for every
    [jobs]. *)

type runner = quick:bool -> Table.t list Work.t

val registry : (string * string * runner) list
(** (figure id, description, runner). Ids: "1".."19", "t1", "c3",
    "c4", "a1".."a13", "r1".."r3", "h1".."h2". *)

val ids : unit -> string list
val describe : unit -> (string * string) list
val find : string -> runner option

type failure = {
  failed_id : string;
  message : string;
      (** the failed leaf (scenario digest or task number), the figures
          that declared it, and the cause *)
  exn : exn;  (** the original exception *)
  backtrace : string;  (** empty unless backtrace recording is on *)
}

val run_batch :
  ?jobs:int -> quick:bool -> (string * runner) list ->
  (string * (Table.t list, failure) result) list
(** Run every entry's work as one batch ({!Work.run}), then project
    each entry in order. A failed leaf fails exactly the entries that
    declared it; the others still render. Streams a [start] figure
    event per entry before the batch and [done]/[failed] after it. *)

val run :
  ?jobs:int -> quick:bool -> string list ->
  (string * (Table.t list, failure) result) list
(** {!run_batch} over registry ids, in the order given. An unknown id
    becomes an [Error] listing the valid ids. *)

val run_one : ?jobs:int -> quick:bool -> string -> Table.t list
(** Raises [Invalid_argument] on an unknown id, and a failed figure's
    original exception. *)

val run_all : ?jobs:int -> quick:bool -> unit -> Table.t list
(** The whole registry as one batch; raises like {!run_one}. *)
