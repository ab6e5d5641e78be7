(** One runner per paper figure/table. [quick] shrinks grids and run
    lengths (benchmark mode); full mode reproduces the paper-scale
    sweeps. The experiment index lives in DESIGN.md, the
    paper-vs-measured record in EXPERIMENTS.md.

    A runner runs nothing: it declares its scenario runs and seeded
    tasks as {!Work.t} and projects them to tables. {!run_batch} runs
    the work of any set of runners as one deduplicated pool job over
    [jobs] domains (default 1); every leaf derives its PRNG from its
    own coordinates, so the tables are byte-identical for every
    [jobs]. *)

type runner = quick:bool -> Table.t list Work.t

val registry : (string * string * runner) list
(** (figure id, description, runner). Ids: "1".."19", "t1", "c3",
    "c4", "a1".."a13", "r1".."r3", "h1".."h2". *)

val ids : unit -> string list
val describe : unit -> (string * string) list
val find : string -> runner option

(** {2 Shared experiments}

    Experiments that a figure and a {!Validate} check both run, defined
    once here. Each is a plain, self-seeded computation: callers wrap
    it in {!Work.task}. *)

val run_basic :
  seed:int -> kind:Ebrc_formulas.Formula.kind -> l:int -> p:float ->
  cv:float -> cycles:int -> Ebrc_control.Basic_control.result
(** Figures 3 and 4: the basic control (r = 1, TFRC weights over [l]
    intervals) under iid shifted-exponential losses. *)

val deviation_ratio : quick:bool -> float
(** Figure 2's deviation-from-convexity ratio r of PFTK-standard g. *)

type claim3 = {
  p_responsive : float;  (** p′, the fully responsive (TCP-like) source *)
  p_partial : float;  (** p, the partially responsive source *)
  p_poisson : float;  (** p″, the non-adaptive (Poisson) source *)
  partial_rates : float array;  (** the partially responsive profile *)
}

val claim3 : responsiveness:float -> claim3
(** Eq. (13) limits on c3's congestion process (also A2's). *)

type claim4 = {
  p_aimd : float;
  p_ebrc : float;
  analytic : float;  (** p′/p = 4/(1+β)² *)
  simulated : float;  (** p′/p of the deterministic cycle simulations *)
}

val claim4 : beta:float -> claim4
(** One row of c4. *)

val competition :
  quick:bool -> beta:float -> Ebrc_analysis.Few_flows.competition_result
(** One row of A4: one AIMD and one EBRC sharing a fluid link. *)

val exact_vs_mc : cycles:int -> l:int -> float * float
(** One row of A8: (exact, Monte-Carlo) x/f(p) of the basic control
    with uniform weights over [l] intervals, PFTK-simplified, p = 0.1,
    cv = 0.9. *)

type lone_tcp = {
  loss_events : int;
  loss_event_rate : float;
  received : int;  (** packets delivered *)
  mean_rtt : float;
  timeouts : int;
  fast_retransmits : int;
  ascent_samples : int;
      (** cwnd samples in the longest congestion-avoidance ascent *)
  slope_ratio : float;
      (** that ascent's second-half/first-half slope ratio *)
}

val window_growth : quick:bool -> buffer:int -> lone_tcp
(** One row of A6: a lone Reno flow on a 10 Mb/s DropTail([buffer])
    bottleneck (A10 runs the same wiring with other parameters). *)

type failure = {
  failed_id : string;
  message : string;
      (** the failed leaf (scenario digest or task number), the figures
          that declared it, and the cause *)
  exn : exn;  (** the original exception *)
  backtrace : string;  (** empty unless backtrace recording is on *)
}

val run_batch :
  ?jobs:int -> quick:bool -> (string * runner) list ->
  (string * (Table.t list, failure) result) list
(** Run every entry's work as one batch ({!Work.run}), then project
    each entry in order. A failed leaf fails exactly the entries that
    declared it; the others still render. Streams a [start] figure
    event per entry before the batch and [done]/[failed] after it. *)

val run :
  ?jobs:int -> quick:bool -> string list ->
  (string * (Table.t list, failure) result) list
(** {!run_batch} over registry ids, in the order given. An unknown id
    becomes an [Error] listing the valid ids. *)

val run_one : ?jobs:int -> quick:bool -> string -> Table.t list
(** Raises [Invalid_argument] on an unknown id, and a failed figure's
    original exception. *)

val run_all : ?jobs:int -> quick:bool -> unit -> Table.t list
(** The whole registry as one batch; raises like {!run_one}. *)
