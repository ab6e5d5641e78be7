(** The few-competing-senders limit (paper §IV-A.2, Claim 4): closed
    forms for the loss-event rates of an AIMD sender and an
    equation-based sender alone on a fixed-capacity link, the headline
    ratio p′/p = 4/(1−β)² (= 16/9 at β = 1/2), and deterministic cycle
    simulations reproducing both. *)

type params = { alpha : float; beta : float; capacity : float }

val aimd_loss_event_rate : params -> float
(** p′ = 2α / ((1−β²) c²). *)

val ebrc_loss_event_rate : params -> float
(** p = α(1+β) / (2(1−β) c²), the equation-based fixed point. *)

val loss_rate_ratio : beta:float -> float
(** p′/p = 4/(1+β)² (= 16/9 at β = 1/2), independent of α and c. The
    paper prints "4/(1−β)²" but its own 16/9 conclusion and the two
    closed forms satisfy 4/(1+β)²; the printed sign is a typo. *)

val aimd_formula : params -> float -> float
(** The matched AIMD loss-throughput function
    f(p) = √(α(1+β)/(2(1−β))) / √p. *)

val simulate_aimd : ?cycles:int -> params -> float
(** Deterministic saw-tooth simulation; returns the measured loss-event
    rate (events per packet). *)

val simulate_ebrc : ?cycles:int -> ?l:int -> params -> float
(** Deterministic comprehensive-control iteration from a mismatched
    initial condition; converges to [ebrc_loss_event_rate]. *)

type competition_result = {
  aimd_p : float;
  ebrc_p : float;
  ratio : float;       (** aimd_p / ebrc_p *)
  aimd_share : float;  (** Fraction of the carried traffic that is AIMD. *)
}

val simulate_competition :
  ?cycles:int -> ?l:int -> params -> competition_result
(** The paper's undisplayed experiment: one AIMD and one equation-based
    sender sharing the link in a fluid model (a loss event for both when
    the summed rate reaches capacity). The paper reports the p′/p
    deviation "does hold, but is somewhat less pronounced" than the
    isolated 4/(1+β)² — this reproduces that observation. *)
