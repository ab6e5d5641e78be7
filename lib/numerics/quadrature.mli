(** Numerical integration on a closed interval. *)

val adaptive_simpson :
  ?tol:float -> (float -> float) -> lo:float -> hi:float -> float
(** Adaptive Simpson quadrature with Richardson correction, bisecting
    at most 50 levels deep. *)

val trapezoid : (float -> float) -> lo:float -> hi:float -> steps:int -> float
