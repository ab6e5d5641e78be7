(** Checkers for the analytical conditions of Theorems 1 and 2 over a
    region of loss-event intervals (packets). *)

type region = { x_lo : float; x_hi : float }

val f1_holds : ?region:region -> Formula.t -> bool
(** (F1): x ↦ 1/f(1/x) convex on the region. True for SQRT and
    PFTK-simplified; false (but almost true) for PFTK-standard. *)

val f2_holds : ?region:region -> Formula.t -> bool
(** (F2): x ↦ f(1/x) concave on the region. True for SQRT everywhere;
    true for PFTK only in the rare-loss regime. *)

val f2c_holds : ?region:region -> Formula.t -> bool
(** (F2c): x ↦ f(1/x) convex on the region (heavy-loss PFTK regime). *)

val deviation_ratio : ?region:region -> ?samples:int -> Formula.t -> float
(** Proposition 4's r = sup g/g**; ≈ 1.0026 for PFTK-standard on the
    interval around x = 3.3 shown in the paper's Figure 2. *)

val h_inflection : ?lo:float -> ?hi:float -> Formula.t -> float option
(** Loss-event interval where x ↦ f(1/x) switches from convex (heavy
    loss) to concave (rare loss); [None] for SQRT/AIMD (concave
    everywhere) or if no sign change is bracketed. *)

val throughput_bound : Formula.t -> p:float -> cov:float -> float option
(** The Eq. (10) bound on throughput given cov[θ₀, θ̂₀]; [None] when the
    bound's denominator is non-positive (bound vacuous). *)
