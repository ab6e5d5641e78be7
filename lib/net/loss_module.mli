(** Non-queue loss modules: the Bernoulli dropper of the paper's Claim-2
    experiments, plus deterministic and bursty droppers for tests. *)

type t

val process : t -> Packet.t -> bool
(** [true] = forward, [false] = dropped. Updates the per-module
    counters. *)

val stats : t -> int * int
(** (offered, dropped). *)

val add_probes : t -> Ebrc_telemetry.Telemetry.Probe.set -> unit
(** Register [loss_module.offered] / [loss_module.drops] over the
    module's counters in a probe set (the engine's, for a run). *)

val bernoulli : Ebrc_rng.Prng.t -> p:float -> t
(** Each packet dropped independently with probability [p], regardless
    of its length (RED packet-mode, memoryless limit). Samples the
    Geometric(p) run of passed packets once per loss event and counts
    down — one RNG draw per loss event instead of per packet. The same
    process in distribution as one Bernoulli draw per packet, but it
    consumes the RNG differently. *)

val periodic : period:int -> t
(** Drops every [period]-th packet — deterministic tests. *)

val lossless : unit -> t

val bernoulli_bytes : Ebrc_rng.Prng.t -> p_ref:float -> ref_size:int -> t
(** Length-dependent dropper: drop probability
    p_ref · size/ref_size (capped) — RED byte mode, the ablation
    contrast breaking Claim 2's independence assumption. *)

val gilbert_elliott :
  Ebrc_rng.Prng.t ->
  p_good:float -> p_bad:float -> good_to_bad:float -> bad_to_good:float -> t
(** Two-state bursty dropper with per-packet state transitions. *)
