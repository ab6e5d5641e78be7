(** Scalar ODE integration for the comprehensive-control growth equation
    (Eq. 16): an adaptive embedded Dormand–Prince 5(4) engine with
    per-step error control, dense output, and a root-finding threshold
    solve, and a classic fixed-step RK4 engine kept as its test
    oracle. *)

exception
  Step_limit_exceeded of { t : float; y : float; steps : int; what : string }
(** Raised when an integration exhausts its step budget (or the adaptive
    step size degenerates) before reaching its goal. [t], [y] are the
    state at abandonment; [steps] the steps taken; [what] names the
    failing entry point. *)

val rk4_step : (float -> float -> float) -> float -> float -> float -> float
(** [rk4_step f t y h] advances dy/dt = f(t, y) one step of size [h]. *)

val integrate :
  ?steps:int -> (float -> float -> float) -> t0:float -> t1:float ->
  y0:float -> float
(** Fixed-step RK4 over [t0, t1] with [steps] equal steps. *)

val time_to_reach :
  ?step:float -> ?max_steps:int -> (float -> float -> float) ->
  y0:float -> target:float -> float
(** Time for the increasing solution of dy/dt = f(t, y), y(0) = y0, to
    reach [target], by fixed-step RK4 with linear interpolation in the
    final step. Raises {!Step_limit_exceeded} if the step budget is
    exhausted before [target] (e.g. a derivative decaying toward zero). *)

(** {1 Adaptive Dormand–Prince 5(4)} *)

type stats = {
  accepted : int;  (** accepted steps *)
  rejected : int;  (** rejected (error-controlled) trial steps *)
  evals : int;     (** derivative evaluations *)
}

val default_rtol : float
(** 1e-6 — the documented default relative tolerance. *)

val default_atol : float
(** 1e-9 — the default absolute tolerance floor. *)

val integrate_adaptive :
  ?rtol:float -> ?atol:float -> ?h0:float -> ?max_steps:int ->
  (float -> float -> float) -> t0:float -> t1:float -> y0:float -> float
(** Adaptive integration of dy/dt = f(t, y) over [t0, t1]. Per-step
    error is held to [atol + rtol * |y|]. [h0] is the initial trial
    step (default: 1% of the span). Raises {!Step_limit_exceeded} after
    [max_steps] (default 100_000) trial steps. *)

val integrate_adaptive_stats :
  ?rtol:float -> ?atol:float -> ?h0:float -> ?max_steps:int ->
  (float -> float -> float) -> t0:float -> t1:float -> y0:float ->
  float * stats
(** Like {!integrate_adaptive}, also returning step statistics. *)

val time_to_reach_adaptive :
  ?rtol:float -> ?atol:float -> ?h0:float -> ?max_steps:int ->
  (float -> float -> float) -> y0:float -> target:float -> float
(** Adaptive analogue of {!time_to_reach}: steps until an accepted step
    brackets [target], then polishes the crossing on the cubic-Hermite
    dense-output polynomial with Brent's method. [f] must be positive
    along the trajectory. Raises {!Step_limit_exceeded} when the budget
    (default 100_000 trial steps) runs out, e.g. for a derivative that
    decays before the threshold is reached. *)

val time_to_reach_adaptive_stats :
  ?rtol:float -> ?atol:float -> ?h0:float -> ?max_steps:int ->
  (float -> float -> float) -> y0:float -> target:float -> float * stats
(** Like {!time_to_reach_adaptive}, also returning step statistics. *)

(** {1 Resumable vector systems}

    An incremental DOPRI5 stepper for small ODE systems that advance in
    many short bursts interleaved with discrete events (the hybrid
    packet/fluid bottleneck). Stage arrays are preallocated at creation;
    a steady-state {!System.advance} allocates nothing, retains its
    step size across calls, and lands exactly on the requested time by
    clamping the final step. *)
module System : sig
  type t

  type deriv = float -> floatarray -> floatarray -> unit
  (** [f t y dy] writes dy/dt at (t, y) into [dy]. The closure may read
      external mutable inputs (e.g. a packet arrival rate held
      piecewise-constant between syncs); call {!invalidate} after
      changing them so the cached FSAL slope is recomputed. *)

  val create :
    ?rtol:float -> ?atol:float -> ?h0:float -> f:deriv -> t0:float ->
    y0:floatarray -> unit -> t
  (** Fresh stepper at state [y0] (copied) and time [t0]. Tolerances
      default to {!default_rtol} / {!default_atol}. *)

  val time : t -> float
  (** Current integration time. *)

  val dim : t -> int
  (** State dimension. *)

  val value : t -> int -> float
  (** [value st i] is component [i] of the current state. *)

  val set : t -> int -> float -> unit
  (** Overwrite component [i] (e.g. clamping a queue to its physical
      range after an advance). Invalidates the FSAL slope only when the
      value actually changes. *)

  val invalidate : t -> unit
  (** Mark the cached end-of-step slope stale because an external input
      read by the derivative changed. *)

  val advance : ?max_steps:int -> t -> float -> unit
  (** [advance st t1] integrates the state forward to exactly [t1]
      (no-op when [t1 = time st]; invalid_arg when [t1] is in the
      past). Raises {!Step_limit_exceeded} after [max_steps] (default
      100_000) trial steps within this one call. *)

  val stats : t -> stats
  (** Cumulative accepted/rejected/eval counts since [create]. *)
end
