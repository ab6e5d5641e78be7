(** The loss-event interval estimator θ̂ₙ (paper Eq. (2)): a moving
    average over the last L completed loss-event intervals, with the
    comprehensive-control instantaneous variant θ̂(t) (Eq. (4)) that also
    accounts for the currently open interval when that raises the
    estimate. *)

type t

val create : weights:float array -> t
(** Weights must be positive and sum to one (index 0 = most recent
    interval's weight w₁). *)

val of_tfrc : l:int -> t
(** Estimator with normalised RFC 3448 weights of window [l]. *)

val window : t -> int
val filled : t -> int
val is_warm : t -> bool
(** True once [window] intervals have been recorded. *)

val prime : t -> float -> unit
(** Fill the whole history with a constant (e.g. 1/p), making the
    estimator warm at the stationary operating point. *)

val record : t -> float -> unit
(** Append a completed loss-event interval (packets). *)

val last : t -> float
val nth_back : t -> int -> float
(** [nth_back t 0] = most recent recorded interval. *)

val estimate : t -> float
(** θ̂ₙ. Before warm-up the filled prefix is renormalised so early
    estimates remain unbiased. *)

val estimate_with_open_interval : t -> open_interval:float -> float
(** θ̂(t) of Eq. (4): max of θ̂ₙ and the estimate with the open interval
    substituted into the newest slot. *)

val tail_weighted_sum : t -> float
(** Wₙ = Σ_{l=1}^{L-1} w_{l+1} θ_{n-l}. Requires a warm estimator. *)

val open_interval_threshold : t -> float
(** (θ̂ₙ − Wₙ)/w₁: the open-interval length beyond which the estimate
    starts growing (defines the paper's event Aₜ and the duration Uₙ). *)

val first_weight : t -> float
val copy : t -> t
