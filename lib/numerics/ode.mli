(** Explicit ODE integration for the fluid background
    ({!Ebrc_net.Fluid}): a resumable embedded Dormand–Prince 5(4)
    stepper for small vector systems, with per-step error control and
    FSAL reuse. *)

exception
  Step_limit_exceeded of { t : float; y : float; steps : int; what : string }
(** Raised when an integration exhausts its step budget (or the adaptive
    step size degenerates) before reaching its goal. [t], [y] are the
    time and first state component at abandonment; [steps] the steps
    taken; [what] names the failing entry point. *)

type stats = {
  accepted : int;  (** accepted steps *)
  rejected : int;  (** rejected (error-controlled) trial steps *)
  evals : int;     (** derivative evaluations *)
}

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
      default to 1e-6 (relative) / 1e-9 (absolute floor). *)

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
