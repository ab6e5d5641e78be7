(** Declared experiment work: what a figure needs computed, separate
    from how its tables are projected from the results.

    A ['a t] is a tree of leaves — scenario runs and self-contained
    thunks — combined by {!map}, {!list} and {!both}. Building one
    runs nothing; {!run} runs a whole batch of them as one pool job. *)

type 'a t

val scenario : Scenario.config -> Scenario.result t
(** A scenario run through {!Result_cache.run}. Within one {!run},
    configs with the same {!Codec.encode} bytes are run once, so a
    command that runs one batch simulates no config twice. *)

val task : (unit -> 'a) -> 'a t
(** A self-contained computation (seeded Monte Carlo, a direct engine
    run). It must derive any randomness from its own seed and share no
    mutable state, so its value is the same on any domain. Tasks are
    never deduplicated. *)

val map : ('a -> 'b) -> 'a t -> 'b t
(** Project a result. The function runs on the calling domain after
    the batch. *)

val list : 'a t list -> 'a list t
val both : 'a t -> 'b t -> ('a * 'b) t

val configs : 'a t -> Scenario.config list
(** The scenario leaves in declaration order, duplicates included. *)

type error = {
  owners : string list;
      (** ids of the batch entries that declared the failed leaf *)
  leaf : string;
      (** ["scenario <digest>"] (its {!Result_cache.digest_of_config}),
          ["task #k"] (the owner's k-th task, 1-based), or
          ["projection"] when a {!map} function raised *)
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}

val run :
  ?jobs:int -> (string * 'a t) list -> (string * ('a, error) result) list
(** [run ~jobs entries] gathers the leaves of every entry, runs each
    distinct leaf once in one crash-isolated
    {!Ebrc_parallel.Pool.try_init} on the shared pool of [jobs] domains
    (default 1), scenarios with the most bottleneck packets first, then
    projects each entry in order. A failed leaf fails exactly the
    entries that read it; the others still project. Results are
    identical for every [jobs]. *)
