(** Streaming covariance accumulator for paired observations.

    Used to estimate the paper's covariance conditions — (C1)
    cov[θ₀, θ̂₀] and (C2) cov[X₀, S₀] — online, without storing whole
    trajectories. *)

type t

val create : unit -> t
val reset : t -> unit

val add : t -> float -> float -> unit
(** [add t x y] folds one (x, y) pair in. *)

val count : t -> int

val covariance : t -> float
(** Unbiased; [0.] for fewer than 2 pairs. *)
