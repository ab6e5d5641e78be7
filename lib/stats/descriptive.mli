(** Descriptive statistics over float arrays.

    All estimators are the standard textbook ones; sample variance and
    covariance use the unbiased (n-1) normalisation, the moment-based
    shape statistics (skewness, kurtosis) use population moments.
    Functions raise [Invalid_argument] on empty input. *)

val sum : float array -> float
(** Compensated (Kahan) sum. *)

val mean : float array -> float

val variance : ?mean:float -> float array -> float
(** Unbiased sample variance; [0.] for a singleton. Pass [~mean] to avoid
    recomputing it. *)

val variance_population : ?mean:float -> float array -> float
(** Population (1/n) variance. *)

val stddev : ?mean:float -> float array -> float

val coefficient_of_variation : float array -> float
(** stddev / mean. Raises [Invalid_argument] if the mean is zero. *)

val covariance : float array -> float array -> float
(** Unbiased sample covariance of two equal-length series. *)

val correlation : float array -> float array -> float
(** Pearson correlation; [0.] when either series is constant. *)

val autocovariance : float array -> lag:int -> float
(** Autocovariance at the given non-negative lag (population normalised
    over the [n - lag] available pairs). *)

val autocorrelation : float array -> lag:int -> float

val skewness : float array -> float
(** Population skewness; 2 for an exponential distribution. *)

val kurtosis_excess : float array -> float
(** Excess kurtosis; 0 for Gaussian, 6 for exponential. *)

val minimum : float array -> float
val maximum : float array -> float

val quantile : float array -> float -> float
(** Linear-interpolation quantile (R type 7). Argument in [0, 1]. *)

val median : float array -> float

val linear_regression : float array -> float array -> float * float
(** [linear_regression xs ys] is the OLS fit [(intercept, slope)] of
    y = intercept + slope * x. *)
