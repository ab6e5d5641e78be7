(** A flock of minimal periodic flows for scheduler-bound scale
    benchmarks.

    Each member ticks at its own fixed gap (drawn once from a seeded
    PRNG), bumping a per-flow sequence number and folding [(flow,
    seq)] into a dispatch-order fingerprint before rescheduling
    itself. Per-flow state is struct-of-arrays and every tick thunk is
    preallocated at {!create}, so the steady state allocates nothing:
    with 10^5 members the engine's scheduler is the only thing on the
    critical path, which is the point — at ~10^5 pending events a
    binary heap pays ~17 sift levels per operation where the timing
    wheel pays O(1).

    Two runs agree on the [fingerprint] of {!stats} iff they dispatched the same
    events in the same order, so the fingerprint is the scale-bench
    analogue of the scenario-level serialized-result bit-identity
    check. *)

type t

type stats = { flows : int; events : int; fingerprint : int }

val create : ?flows:int -> ?seed:int -> Ebrc_sim.Engine.t -> t
(** Build the flock and schedule every member's first tick, staggered
    uniformly over its own first period. Defaults: 100_000 flows,
    seed 1. The caller runs the engine. Per-flow state lives in a
    {!Flow_pool} (tick gap in [rate], sequence in [seq]). *)

val pool : t -> Flow_pool.t
(** The flock's backing flow pool. *)

val run : ?flows:int -> ?duration:float -> ?seed:int -> unit -> stats
(** Convenience wrapper: fresh engine, run to [duration] (default 10 s
    of simulated time), return the tallies. *)

(** {2 flows1m: the hybrid packet/fluid scale bench} *)

type hybrid_stats = {
  fg_flows : int;
  bg_flows : int;
  events : int;      (** engine events dispatched *)
  sent : int;        (** foreground packets offered to the link *)
  delivered : int;
  dropped : int;
  fingerprint : int; (** dispatch-order fold over deliveries and drops *)
  fluid : Ebrc_net.Fluid.stats option;
      (** [None] when [bg_flows = 0]. *)
}

val run_hybrid :
  ?fg_flows:int -> ?bg_flows:int -> ?duration:float -> ?seed:int ->
  ?base_rtt:float -> unit -> hybrid_stats
(** The flows1m bench: [fg_flows] (default 20_000) packet-level
    periodic flows send real packets through a DropTail bottleneck
    sized at 2.5 × their aggregate mean
    rate, while a fluid aggregate of [bg_flows] (default 200_000) AIMD
    background flows contends for the same queue ([bg_flows = 0] runs
    the identical packet-only bench with no fluid attached).
    Deliveries and drops fold into the fingerprint, so repeated runs at
    equal seeds must agree — the hybrid co-simulation's determinism
    check. *)
