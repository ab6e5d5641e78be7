(** Synthetic path profiles replacing the paper's lab and Internet
    testbeds (the DESIGN.md substitution). Each profile targets the
    operating regime the paper reports for that path. *)

type profile = {
  name : string;
  bottleneck_bps : float;
  one_way_delay : float;
  queue : Scenario.queue_config;
  n_grid : int list;
  comprehensive : bool;
      (** The paper's setting for this path: the comprehensive control
          element was enabled on the Internet paths and disabled in the
          lab runs. *)
  description : string;
}

val inria : profile
val umass : profile
val kth : profile
val umelb : profile
(** Small buffer / large BDP, reproducing the batch losses the paper
    observed on the UMELB path. *)

val cable_modem : profile
(** The paper's EPFL cable-modem receiver: a very slow last hop with a
    tiny buffer (the Figure-10 right panel regime). *)

val lab_droptail : capacity:int -> profile
val lab_red : pkt:int -> profile
(** Lab RED with the paper's U = 62500-byte threshold geometry. *)

val lab_red_params : pkt:int -> Ebrc_net.Queue_discipline.red_params

val internet_profiles : profile list
val lab_profiles : pkt:int -> profile list
val all_profiles : pkt:int -> profile list

val to_config :
  ?seed:int ->
  ?duration:float ->
  ?warmup:float ->
  ?tfrc_l:int ->
  ?formula_kind:Ebrc_formulas.Formula.kind ->
  ?comprehensive:bool ->
  profile ->
  n:int ->
  Scenario.config
(** Instantiate a dumbbell config with [n] TFRC and [n] TCP flows. *)

val table_one : unit -> Table.t
(** The paper's Table I, rendered from the profile catalog. *)
