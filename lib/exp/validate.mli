(** Automated validation of the paper's qualitative claims: each check
    declares its experiments as {!Work.t} and projects them to a
    verdict on the shape the paper predicts, so a substrate regression
    that would change a scientific conclusion fails loudly. Exposed
    through `ebrc validate`. *)

type check = {
  id : string;
  claim : string;
  run : quick:bool -> (bool * string) Work.t;
      (** the check's work, projecting to (pass, evidence) *)
}

type outcome = { check : check; passed : bool; evidence : string }

val checks : check list

val run : ?jobs:int -> quick:bool -> check list -> outcome list
(** Run every check's work as one {!Work.run} batch over [jobs]
    domains (default 1), in one [validate:batch] telemetry span, and
    return the outcomes in order. A check whose leaf or projection
    raised is a FAIL with evidence ["raised <exn>"]; the others still
    run. Outcomes are identical for every [jobs]. *)

val to_table : outcome list -> Table.t
val all_passed : outcome list -> bool
