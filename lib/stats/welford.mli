(** Streaming mean/variance accumulator (Welford's algorithm) with
    extrema. Constant memory; suitable for simulator hot
    paths where storing every sample would be too costly. *)

type t

val create : unit -> t
val copy : t -> t
val reset : t -> unit

val add : t -> float -> unit
(** Fold one observation into the accumulator. *)

val count : t -> int

val mean : t -> float
(** [nan] when empty. *)

val variance : t -> float
(** Unbiased; [0.] for fewer than 2 samples. *)

val coefficient_of_variation : t -> float
(** [nan] when mean is 0 or empty. *)

val minimum : t -> float
(** [nan] when empty. *)

val maximum : t -> float
(** [nan] when empty. *)

val merge : t -> t -> t
(** Combine two accumulators (Chan et al.); exact for mean, variance and
    extrema. *)

val pp : Format.formatter -> t -> unit
