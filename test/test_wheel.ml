(* Tests for the timing-wheel event core: dispatch-order equivalence
   with the pure-heap reference model (the bit-identity contract),
   wheel window edges (rollover, far-future overflow, behind-cursor
   reschedules after a salvaged abort), cancellation across cascades,
   and the pinned flock dispatch fingerprint. *)

module E = Ebrc.Engine
module TW = Ebrc.Timing_wheel
module H = Heap_reference

(* The scheduling surface the schedule programs below use, so each
   program runs unchanged on the engine and on the reference heap. *)
module type SCHED = sig
  type t
  type handle

  val create : unit -> t
  val now : t -> float
  val schedule : t -> at:float -> (unit -> unit) -> handle
  val schedule_unit : t -> at:float -> (unit -> unit) -> unit
  val schedule_after_unit : t -> delay:float -> (unit -> unit) -> unit
  val cancel : handle -> unit
  val run : t -> unit
end

module Wheel : SCHED = struct
  type t = E.t
  type handle = E.handle

  let create = E.create
  let now = E.now
  let schedule = E.schedule
  let schedule_unit = E.schedule_unit
  let schedule_after_unit = E.schedule_after_unit
  let cancel = E.cancel
  let run e = ignore (E.run e : E.stop_reason)
end

module Programs (S : SCHED) = struct
  (* Interpret one schedule program and return the dispatch log.
     Initial events at quantized times (exact ties and same-slot
     bursts are common by construction); optionally cancelled right
     after scheduling; every third fired event schedules a follow-up,
     sometimes far beyond the 16 s wheel horizon so the overflow heap
     stays in the merge. Follow-up delays are multiples of 1/16 s, so
     sums stay exact and a follow-up that lands on the wheel can tie
     an earlier-ticketed event waiting on the heap. *)
  let run_program prog =
    let e = S.create () in
    let log = ref [] in
    List.iteri
      (fun i (t, cancel) ->
        let h =
          S.schedule e ~at:t (fun () ->
              log := i :: !log;
              if i mod 3 = 0 then
                S.schedule_unit e
                  ~at:
                    (S.now e
                    +. (Float.round (0.37 *. t *. 16.0) /. 16.0)
                    +. if i mod 5 = 0 then 20.0 else 0.0)
                  (fun () -> log := (10_000 + i) :: !log))
        in
        if cancel then S.cancel h)
      prog;
    S.run e;
    List.rev !log

  (* Same-instant burst: thousands of events at one time. *)
  let burst () =
    let e = S.create () in
    let log = ref [] in
    for i = 0 to 4_999 do
      S.schedule_unit e ~at:1.0 (fun () -> log := i :: !log)
    done;
    S.run e;
    List.rev !log

  (* A self-rescheduling tick crossing many 16 s windows. *)
  let rollover () =
    let e = S.create () in
    let fires = ref 0 in
    let rec tick () =
      incr fires;
      if S.now e < 40.0 then S.schedule_after_unit e ~delay:0.31 tick
    in
    S.schedule_unit e ~at:0.0 tick;
    S.run e;
    !fires
end

module On_wheel = Programs (Wheel)
module On_heap = Programs (H)

(* ---------------- dispatch-order equivalence ---------------- *)

let prop_wheel_heap_identical =
  QCheck.Test.make ~name:"wheel and heap dispatch identically" ~count:120
    QCheck.(
      list_of_size
        Gen.(int_range 1 120)
        (pair (float_range 0.0 40.0) bool))
    (fun raw ->
      (* Quantize to multiples of 1/16 s: adjacent draws collide into
         exact ties and same-slot bursts instead of spreading out. *)
      let prog =
        List.map
          (fun (t, c) -> (float_of_int (int_of_float (t *. 16.0)) /. 16.0, c))
          raw
      in
      On_wheel.run_program prog = On_heap.run_program prog)

(* Same-instant burst: the events land in one level-0 slot, forcing
   the slot sort; FIFO (ticket) order must survive it. *)
let test_same_time_burst () =
  let wheel_log = On_wheel.burst () in
  Alcotest.(check bool)
    "burst dispatches in scheduling order" true
    (wheel_log = List.init 5_000 Fun.id);
  Alcotest.(check bool) "burst identical to heap" true
    (wheel_log = On_heap.burst ())

(* ---------------------- window edges ----------------------- *)

(* The level-1 cursor wraps its 256-slot ring several times. *)
let test_rollover () =
  let w = On_wheel.rollover () in
  Alcotest.(check int) "tick count survives rollover" w (On_heap.rollover ());
  Alcotest.(check bool) "ticked across windows" true (w > 120)

let test_far_future_overflow () =
  let e = E.create () in
  let log = ref [] in
  let mark x () = log := x :: !log in
  (* 100 s is far beyond the 16 s horizon: heap-owned. *)
  E.schedule_unit e ~at:100.0 (mark "far");
  E.schedule_unit e ~at:1.0 (mark "near");
  Alcotest.(check int) "overflow event is off the wheel" 1
    (TW.count e.E.wheel);
  E.schedule_unit e ~at:17.5 (mark "mid");
  ignore (E.run e);
  Alcotest.(check (list string))
    "wheel and heap events merge in time order" [ "near"; "mid"; "far" ]
    (List.rev !log)

let test_cancel_across_cascade () =
  let e = E.create () in
  let log = ref [] in
  (* [doomed] sits in a level-1 slot until the cascade at ~1.5 s
     moves it down to level 0; the canceller fires first. *)
  let doomed = E.schedule e ~at:1.5 (fun () -> log := "doomed" :: !log) in
  E.schedule_unit e ~at:1.4375 (fun () ->
      E.cancel doomed;
      log := "canceller" :: !log);
  E.schedule_unit e ~at:1.5625 (fun () -> log := "after" :: !log);
  ignore (E.run e);
  Alcotest.(check (list string))
    "cancelled entry discarded after cascade" [ "canceller"; "after" ]
    (List.rev !log)

(* A sim-budget abort leaves the cursor at the slot of the aborted
   event while [now] stays behind it; a reschedule in that gap is
   behind the cursor and must overflow to the heap, then merge back in
   exact time order when the run resumes. *)
let test_budget_salvage_reschedule () =
  let e = E.create () in
  let log = ref [] in
  let mark x () = log := x :: !log in
  E.schedule_unit e ~at:0.5 (mark "a");
  E.schedule_unit e ~at:2.0 (mark "b");
  E.schedule_unit e ~at:8.0 (mark "c");
  (match E.run ~sim_budget:1.0 e with
  | exception E.Budget_exceeded _ -> ()
  | _ -> Alcotest.fail "expected Budget_exceeded");
  Alcotest.(check bool) "wheel still holds salvaged events" true
    (TW.count e.E.wheel > 0);
  (* now = 0.5; the cursor advanced to b's slot when the budget
     tripped, so 0.6 is behind it and must overflow to the heap —
     the wheel population stays unchanged. *)
  let on_wheel = TW.count e.E.wheel in
  E.schedule_unit e ~at:(E.now e +. 0.1) (mark "late");
  Alcotest.(check int) "behind-cursor event went to the heap" on_wheel
    (TW.count e.E.wheel);
  ignore (E.run e);
  Alcotest.(check (list string))
    "salvage + behind-cursor reschedule keep time order"
    [ "a"; "late"; "b"; "c" ]
    (List.rev !log)

(* ------------------------- flock --------------------------- *)

(* 500 periodic flows for 5 s at seed 7. The fingerprint folds every
   (flow, seq) in dispatch order; its value was recorded when the
   wheel and the pure-heap scheduler still ran side by side and agreed
   on it, so any change to dispatch order moves it. *)
let test_flock_fingerprints_agree () =
  let w = Ebrc.Flock.run ~flows:500 ~duration:5.0 ~seed:7 () in
  Alcotest.(check int) "event count" 2552 w.Ebrc.Flock.events;
  Alcotest.(check int) "dispatch fingerprint" 3452388182890055845
    w.Ebrc.Flock.fingerprint

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_wheel_heap_identical ]

let () =
  Alcotest.run "wheel"
    [
      ( "edges",
        [
          Alcotest.test_case "same-time burst" `Quick test_same_time_burst;
          Alcotest.test_case "rollover" `Quick test_rollover;
          Alcotest.test_case "far-future overflow" `Quick
            test_far_future_overflow;
          Alcotest.test_case "cancel across cascade" `Quick
            test_cancel_across_cascade;
          Alcotest.test_case "budget salvage reschedule" `Quick
            test_budget_salvage_reschedule;
          Alcotest.test_case "flock fingerprints" `Quick
            test_flock_fingerprints_agree;
        ] );
      ("properties", qsuite);
    ]
