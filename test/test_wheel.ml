(* Tests for the timing-wheel event core: dispatch-order equivalence
   with the pure-heap reference model (the bit-identity contract), for
   one-shot events, re-armable timers and FIFO lanes, wheel window edges
   (rollover, far-future overflow, behind-cursor reschedules after a
   salvaged abort), cancellation across cascades, the deferred timer
   re-insert's edge cases, and the pinned flock dispatch
   fingerprint. *)

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
  val run : ?until:float -> t -> unit

  type timer

  val timer : (unit -> unit) -> timer
  val arm : t -> timer -> at:float -> unit
  val disarm : timer -> unit
  val tickets : t -> int

  type lane

  val lane : (unit -> unit) -> lane
  val lane_push : t -> lane -> at:float -> unit
end

module Wheel : SCHED with type t = E.t = struct
  type t = E.t
  type handle = E.timer

  let create = E.create
  let now = E.now
  let schedule = E.schedule
  let schedule_unit = E.schedule_unit
  let schedule_after_unit = E.schedule_after_unit
  let cancel = E.disarm
  let run ?until e = ignore (E.run ?until e : E.stop_reason)

  type timer = E.timer

  let timer = E.timer
  let arm = E.arm
  let disarm = E.disarm
  let tickets e = e.E.queue.Ebrc.Event_queue.next_seq

  type lane = E.lane

  let lane = E.lane
  let lane_push = E.lane_push
end

(* One step of a timer program: arm timer [k] [d] seconds ahead,
   disarm it, schedule a unit event [d] seconds ahead, or push onto
   lane [j] [d] seconds after the later of now and the lane's last
   entry. *)
type op =
  | Arm of int * float
  | Disarm of int
  | Unit of float
  | Lane of int * float

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

  (* Interpret one timer program: each (time, op) step runs from a unit
     event at that time, on three timers and four lanes. Timer 0
     re-arms itself from its own action (up to three times), so arms
     made while a timer fires are covered too. Lanes come in two
     server/line pairs, as two links would have them: an even lane
     feeds the odd lane after it half a second later, as a link's
     server feeds its propagation line, and an odd lane schedules a
     unit event a quarter second later, as a delivery schedules the
     reverse path; each lane keeps its own tail so every push is in
     order. With [until], the run first stops
     there — leaving whatever is due later queued, lane entries
     included — and the log marks the stop before the run resumes.
     Returns the (time, label) dispatch log, the ticket count and the
     scheduler. *)
  let run_timer_program ?until steps =
    let e = S.create () in
    let log = ref [] in
    let note label = log := (S.now e, label) :: !log in
    let timers = Array.make 3 (S.timer ignore) in
    let self_arms = ref 0 in
    Array.iteri
      (fun k _ ->
        timers.(k) <-
          S.timer (fun () ->
              note (Printf.sprintf "timer %d" k);
              if k = 0 && !self_arms < 3 then begin
                incr self_arms;
                S.arm e timers.(0) ~at:(S.now e +. 0.25)
              end))
      timers;
    let tails = Array.make 4 0.0 in
    let lanes = Array.make 4 (S.lane ignore) in
    let push j d =
      let at = Float.max (S.now e +. d) tails.(j) in
      tails.(j) <- at;
      S.lane_push e lanes.(j) ~at
    in
    let fired = Array.make 4 0 in
    Array.iteri
      (fun j _ ->
        lanes.(j) <-
          S.lane (fun () ->
              let n = fired.(j) in
              note (Printf.sprintf "lane %d #%d" j n);
              fired.(j) <- n + 1;
              if j land 1 = 0 then push (j + 1) 0.5
              else
                S.schedule_unit e ~at:(S.now e +. 0.25) (fun () ->
                    note (Printf.sprintf "after lane %d #%d" j n))))
      lanes;
    List.iteri
      (fun i (at, op) ->
        S.schedule_unit e ~at (fun () ->
            match op with
            | Arm (k, d) -> S.arm e timers.(k) ~at:(S.now e +. d)
            | Disarm k -> S.disarm timers.(k)
            | Unit d ->
                S.schedule_unit e ~at:(S.now e +. d) (fun () ->
                    note (Printf.sprintf "unit %d" i))
            | Lane (j, d) -> push j d))
      steps;
    (match until with
    | Some u ->
        S.run ~until:u e;
        log := (u, "until") :: !log
    | None -> ());
    S.run e;
    (List.rev !log, S.tickets e, e)

  (* Same-instant burst: thousands of events at one time. *)
  let burst () =
    let e = S.create () in
    let log = ref [] in
    for i = 0 to 4_999 do
      S.schedule_unit e ~at:1.0 (fun () -> log := i :: !log)
    done;
    S.run e;
    List.rev !log

  (* The single-entry-slot fast path, then pushes into that slot. An
     event at 10 s schedules [b] alone into the slot at 20 s; the
     20 s event, beyond the horizon when scheduled at 0, sits on the
     overflow heap. Before it fires, the wheel publishes [b] as the
     minimum of its one-entry slot; the heap event then schedules a
     unit event at each of [times], all in [b]'s slot ([hook] sees the
     scheduler at that moment). *)
  let single_entry_slot ?(hook = ignore) times =
    let e = S.create () in
    let log = ref [] in
    let mark x () = log := x :: !log in
    let b = 20.0 +. ldexp 1.0 (-18) in
    S.schedule_unit e ~at:20.0 (fun () ->
        hook e;
        mark "heap" ();
        List.iter
          (fun (label, at) -> S.schedule_unit e ~at (mark label))
          times);
    S.schedule_unit e ~at:10.0 (fun () -> S.schedule_unit e ~at:b (mark "b"));
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

(* Random timer programs: arms (to later and earlier deadlines, some
   past the 16 s horizon), disarms and unit events on three timers,
   at times and delays quantized to 1/16 s so that ties are common.
   The engine's deferred re-arms must dispatch exactly like the
   reference's cancel-and-reschedule, and draw the same tickets. *)
let prop_timers_match_reference =
  QCheck.Test.make ~name:"timers dispatch like cancel-and-reschedule"
    ~count:200
    QCheck.(
      list_of_size
        Gen.(int_range 1 80)
        (quad (float_range 0.0 30.0) (int_range 0 3) (int_range 0 2)
           (float_range 0.0 24.0)))
    (fun raw ->
      let q x = float_of_int (int_of_float (x *. 16.0)) /. 16.0 in
      let steps =
        List.map
          (fun (at, kind, k, d) ->
            ( q at,
              match kind with
              | 0 | 1 -> Arm (k, q d)
              | 2 -> Disarm k
              | _ -> Unit (q d) ))
          raw
      in
      let wlog, wtickets, _ = On_wheel.run_timer_program steps in
      let hlog, htickets, _ = On_heap.run_timer_program steps in
      wlog = hlog && wtickets = htickets)

(* Random programs mixing FIFO lane pushes onto four lanes (some past
   the 16 s horizon), unit events and timer arms, re-arms and disarms,
   at times and delays quantized to 1/16 s: lane heads tie exactly
   with each other, with wheel entries and with overflow-heap entries
   (steps past 16 s start on the heap), and a lane often drains while
   another still holds entries. Half the programs first run to a
   random [until] and stop with entries — lane entries among them —
   still queued. The lanes must dispatch like the unit events they
   stand for, and draw the same tickets. *)
let prop_lanes_match_reference =
  QCheck.Test.make ~name:"lanes dispatch like unit events" ~count:300
    QCheck.(
      pair
        (list_of_size
           Gen.(int_range 1 60)
           (quad (float_range 0.0 30.0) (int_range 0 5) (int_range 0 2)
              (float_range 0.0 24.0)))
        (option ~ratio:0.5 (float_range 0.0 40.0)))
    (fun (raw, until) ->
      let q x = float_of_int (int_of_float (x *. 16.0)) /. 16.0 in
      let steps =
        List.map
          (fun (at, kind, k, d) ->
            ( q at,
              match kind with
              | 0 -> Arm (k, q d)
              | 1 -> Disarm k
              | 2 -> Unit (q d)
              | _ ->
                  (* kind 3..5 and k 0..2: every lane index 0..3 *)
                  Lane
                    ( (kind + k) land 3,
                      if kind = 5 then q d else q (d /. 8.0) ) ))
          raw
      in
      let until = Option.map q until in
      let wlog, wtickets, _ = On_wheel.run_timer_program ?until steps in
      let hlog, htickets, _ = On_heap.run_timer_program ?until steps in
      wlog = hlog && wtickets = htickets)

(* Same-instant burst: the events land in one level-0 slot, forcing
   the slot sort; FIFO (ticket) order must survive it. *)
let test_same_time_burst () =
  let wheel_log = On_wheel.burst () in
  Alcotest.(check bool)
    "burst dispatches in scheduling order" true
    (wheel_log = List.init 5_000 Fun.id);
  Alcotest.(check bool) "burst identical to heap" true
    (wheel_log = On_heap.burst ())

(* A one-entry slot's minimum is published, then the slot takes an
   earlier entry (the new minimum, prepended) and then one at [b]'s
   time with a later ticket (prepended behind the published head);
   and, alone, the equal-time push after the fast path. *)
let test_single_entry_slot () =
  let b = 20.0 +. ldexp 1.0 (-18) in
  let earlier = ("earlier", 20.0 +. ldexp 1.0 (-19)) and tie = ("tie", b) in
  let published = ref false in
  let hook e =
    let w = e.E.wheel in
    published :=
      TW.count w = 1 && w.TW.min_ok && TW.min_time w = b
      && w.TW.min_prev = -1
  in
  let wlog = On_wheel.single_entry_slot ~hook [ earlier; tie ] in
  Alcotest.(check bool) "one-entry slot minimum published" true !published;
  Alcotest.(check (list string))
    "earlier, then tie behind the older ticket"
    [ "heap"; "earlier"; "b"; "tie" ] wlog;
  Alcotest.(check (list string)) "same as reference"
    (On_heap.single_entry_slot [ earlier; tie ]) wlog;
  Alcotest.(check (list string)) "tie alone"
    (On_heap.single_entry_slot [ tie ])
    (On_wheel.single_entry_slot [ tie ])

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
      E.disarm doomed;
      log := "canceller" :: !log);
  E.schedule_unit e ~at:1.5625 (fun () -> log := "after" :: !log);
  ignore (E.run e);
  Alcotest.(check (list string))
    "cancelled entry discarded after cascade" [ "canceller"; "after" ]
    (List.rev !log)

(* ---------------------- timer re-arms ---------------------- *)

let log_t = Alcotest.(list (pair (float 0.0) string))

(* Run [steps] on both schedulers: the logs and ticket counts must
   match each other and [expected]; returns the engine. *)
let timer_case name steps expected =
  let wlog, wtickets, e = On_wheel.run_timer_program steps in
  let hlog, htickets, _ = On_heap.run_timer_program steps in
  Alcotest.check log_t (name ^ ": dispatch log") expected wlog;
  Alcotest.check log_t (name ^ ": same as reference") hlog wlog;
  Alcotest.(check int) (name ^ ": tickets") htickets wtickets;
  e

(* Re-arming to an earlier deadline queues a fresh entry; the old one
   is an orphan, discarded when it pops without firing. *)
let test_orphaned_earlier_rearm () =
  let e =
    timer_case "orphan"
      [ (0.0, Arm (1, 5.0)); (1.0, Arm (1, 1.0)) ]
      [ (2.0, "timer 1") ]
  in
  Alcotest.(check int) "orphan discarded" 1 e.E.discarded;
  Alcotest.(check int) "fired: two steps and the timer" 3 e.E.processed;
  (* The orphan at 5 s pops while the timer is armed again, deferred
     to 8 s: it is still an orphan, not a second live entry. *)
  let e =
    timer_case "orphan, then deferred"
      [ (0.0, Arm (1, 5.0)); (1.0, Arm (1, 1.0)); (1.5, Arm (1, 6.5)) ]
      [ (8.0, "timer 1") ]
  in
  Alcotest.(check int) "orphan discarded while armed" 1 e.E.discarded;
  Alcotest.(check int) "queued: steps, two arms, one re-insert" 6
    e.E.wheel.TW.pushed

(* A disarmed timer keeps its queued entry; re-armed before that entry
   pops, to a later deadline, the entry is reused (nothing discarded);
   to an earlier one, it is orphaned. *)
let test_disarm_then_rearm () =
  let later =
    timer_case "later"
      [ (0.0, Arm (1, 3.0)); (1.0, Disarm 1); (1.5, Arm (1, 2.5)) ]
      [ (4.0, "timer 1") ]
  in
  Alcotest.(check int) "later: nothing discarded" 0 later.E.discarded;
  let earlier =
    timer_case "earlier"
      [ (0.0, Arm (1, 3.0)); (1.0, Disarm 1); (1.5, Arm (1, 0.5)) ]
      [ (2.0, "timer 1") ]
  in
  Alcotest.(check int) "earlier: orphan discarded" 1 earlier.E.discarded;
  let disarmed =
    timer_case "disarmed" [ (0.0, Arm (1, 3.0)); (1.0, Disarm 1) ] []
  in
  Alcotest.(check int) "disarmed entry discarded" 1 disarmed.E.discarded

(* A re-arm past the 16 s wheel horizon: the early entry pops at 1 s
   and re-inserts itself on the overflow heap under the re-arm's
   ticket, so it still ties correctly against unit events scheduled
   for the same instant before and after that re-arm. *)
let test_rearm_past_horizon () =
  let steps =
    [ (0.0, Arm (1, 1.0)); (0.25, Unit 29.75); (0.5, Arm (1, 29.5));
      (0.75, Unit 29.25) ]
  in
  ignore
    (timer_case "past horizon" steps
       [ (30.0, "unit 1"); (30.0, "timer 1"); (30.0, "unit 3") ]
      : E.t);
  let e = E.create () in
  let fired = ref [] in
  let tm = E.timer (fun () -> fired := E.now e :: !fired) in
  E.arm e tm ~at:1.0;
  let ticket = ref (-1) in
  E.schedule_unit e ~at:0.5 (fun () ->
      ticket := e.E.queue.Ebrc.Event_queue.next_seq;
      E.arm e tm ~at:30.0);
  ignore (E.run ~until:10.0 e);
  Alcotest.(check int) "re-inserted on the overflow heap" 1
    (Ebrc.Event_queue.size e.E.queue);
  Alcotest.(check int) "wheel empty" 0 (TW.count e.E.wheel);
  Alcotest.(check int) "under the re-arm's ticket" !ticket
    e.E.queue.Ebrc.Event_queue.seqs.(0);
  Alcotest.(check int) "stale pop fired nothing" 1 e.E.processed;
  Alcotest.(check bool) "still armed" true (E.armed tm);
  ignore (E.run e);
  Alcotest.(check (list (float 0.0))) "fires once at 30 s" [ 30.0 ] !fired

(* The deferred timer's live entry sits at 2 s with its first ticket;
   the unit event for 3 s is scheduled between the arm and the re-arm
   to 3 s, so it holds the smaller ticket and fires first. *)
let test_deferred_tie () =
  ignore
    (timer_case "tie"
       [ (0.0, Arm (1, 2.0)); (0.5, Unit 2.5); (1.0, Arm (1, 2.0)) ]
       [ (3.0, "unit 1"); (3.0, "timer 1") ]
      : E.t)

(* A stale pop (here the deferred entry at 1 s) must not move the
   clock, count as fired, or reach the sampler or the advance hook. A
   sim-budget abort leaves [now] at the last fired event, which shows
   whether the stale pop moved it. *)
let test_stale_pop_is_silent () =
  let e = E.create () in
  let hooked = ref [] and sampled = ref [] in
  E.set_advance_hook e (Some (fun time -> hooked := time :: !hooked));
  E.set_sampler e ~period:0.5 (fun b -> sampled := b :: !sampled);
  let tm = E.timer ignore in
  E.arm e tm ~at:1.0;
  E.arm e tm ~at:2.0;
  (match E.run ~sim_budget:1.5 e with
  | exception E.Budget_exceeded _ -> ()
  | _ -> Alcotest.fail "expected Budget_exceeded");
  Alcotest.(check (float 0.0)) "clock unmoved" 0.0 (E.now e);
  Alcotest.(check int) "nothing fired" 0 e.E.processed;
  Alcotest.(check (list (float 0.0))) "no hook call" [] !hooked;
  Alcotest.(check (list (float 0.0))) "no sample" [] !sampled;
  ignore (E.run e);
  Alcotest.(check (list (float 0.0))) "hook at the deadline" [ 2.0 ] !hooked;
  Alcotest.(check (list (float 0.0))) "one sample" [ 0.5 ] !sampled

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

(* ------------------------- lanes --------------------------- *)

(* A lane head, a wheel entry and an overflow-heap entry all due at
   20 s fire in ticket order, whichever structure holds each. A unit
   event queued at 1 s is 19 s ahead, past the horizon, so it goes to
   the heap; one queued at 10 s goes on the wheel; the lane entry is
   pushed at either time, before or after the others. *)
let test_lane_three_way_tie () =
  let run_on (type s) (module S : SCHED with type t = s) (e : s) (at1, at10)
      =
    let log = ref [] in
    let mark x () = log := x :: !log in
    let l = S.lane (mark "lane") in
    let queue = function
      | "lane" -> S.lane_push e l ~at:20.0
      | x -> S.schedule_unit e ~at:20.0 (mark x)
    in
    S.schedule_unit e ~at:1.0 (fun () -> List.iter queue at1);
    S.schedule_unit e ~at:10.0 (fun () -> List.iter queue at10);
    S.run e;
    List.rev !log
  in
  List.iter
    (fun ((at1, at10) as plan) ->
      let w = run_on (module Wheel) (E.create ()) plan in
      Alcotest.(check (list string)) "ticket order" (at1 @ at10) w;
      Alcotest.(check (list string)) "same as reference"
        (run_on (module H) (H.create ()) plan)
        w)
    [
      ([ "lane"; "heap" ], [ "wheel" ]);
      ([ "heap"; "lane" ], [ "wheel" ]);
      ([ "heap" ], [ "wheel"; "lane" ]);
    ]

(* Two lanes, where the earliest one drains while the other still holds
   entries, and then refills from a unit event: once ahead of the other
   lane's head (it becomes the earliest again) and once at a tie with
   it (the older ticket, on the other lane, goes first); the other lane
   then drains alone. Exercises both ways [lane_pop] finds the next
   earliest lane, against the reference. *)
let test_lane_drains_beside_another () =
  let run_on (type s) (module S : SCHED with type t = s) (e : s) =
    let log = ref [] in
    let mark x () = log := Printf.sprintf "%s@%g" x (S.now e) :: !log in
    let a = S.lane (mark "a") and b = S.lane (mark "b") in
    List.iter (fun at -> S.lane_push e a ~at) [ 1.0; 2.0 ];
    List.iter (fun at -> S.lane_push e b ~at) [ 1.5; 3.0; 4.0; 5.0 ];
    S.schedule_unit e ~at:2.5 (fun () ->
        mark "unit" ();
        S.lane_push e a ~at:2.75);
    S.schedule_unit e ~at:3.25 (fun () ->
        mark "unit" ();
        S.lane_push e a ~at:4.0);
    S.run e;
    List.rev !log
  in
  let w = run_on (module Wheel) (E.create ()) in
  Alcotest.(check (list string))
    "dispatch order"
    [ "a@1"; "b@1.5"; "a@2"; "unit@2.5"; "a@2.75"; "b@3"; "unit@3.25";
      "b@4"; "a@4"; "b@5" ]
    w;
  Alcotest.(check (list string)) "same as reference"
    (run_on (module H) (H.create ()))
    w

(* A rejected push raises [Invalid_argument] and changes nothing: no
   ticket drawn, nothing queued. *)
let test_lane_push_rejected () =
  let e = E.create () in
  let l = E.lane ignore in
  E.lane_push e l ~at:2.0;
  let rejects what at =
    let tickets = e.E.queue.Ebrc.Event_queue.next_seq in
    let pending = E.pending e in
    (match E.lane_push e l ~at with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ());
    Alcotest.(check int) (what ^ ": no ticket") tickets
      e.E.queue.Ebrc.Event_queue.next_seq;
    Alcotest.(check int) (what ^ ": nothing queued") pending (E.pending e)
  in
  rejects "before the lane's tail" 1.5;
  rejects "NaN" Float.nan;
  E.lane_push e l ~at:2.0;
  E.schedule_unit e ~at:1.0 (fun () -> rejects "before now" 0.5);
  ignore (E.run e);
  Alcotest.(check int) "fired: the event and both lane entries" 3
    e.E.processed

(* A lane belongs to the engine it is first pushed on. Pushing it, once
   drained, on another engine is refused like any rejected push (no
   ticket, nothing queued), both on an engine with no lanes and on one
   whose own first lane sits at the foreign lane's index; the other
   engine's own lanes still run. *)
let test_lane_other_engine_rejected () =
  let a = E.create () and b = E.create () in
  let la = E.lane ignore and lb = E.lane ignore in
  E.lane_push a la ~at:1.0;
  ignore (E.run a);
  let rejects what e l =
    let tickets = e.E.queue.Ebrc.Event_queue.next_seq in
    let pending = E.pending e in
    (match E.lane_push e l ~at:2.0 with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ());
    Alcotest.(check int) (what ^ ": no ticket") tickets
      e.E.queue.Ebrc.Event_queue.next_seq;
    Alcotest.(check int) (what ^ ": nothing queued") pending (E.pending e)
  in
  rejects "engine with no lanes" b la;
  E.lane_push b lb ~at:2.0;
  rejects "engine with its own lane in that slot" b la;
  ignore (E.run b);
  Alcotest.(check int) "b fired its own lane's entry" 1 b.E.processed;
  E.lane_push a la ~at:3.0;
  ignore (E.run a);
  Alcotest.(check int) "a still runs its lane" 2 a.E.processed

(* Lane entries are ordinary events: they count in [pending] (the
   [sim.queue_depth] gauge) while queued and in [processed] when they
   fire, move the clock, reach the sampler and the advance hook, stop
   at [until] and at [max_events], and never touch the wheel. *)
let test_lane_entries_are_events () =
  let e = E.create () in
  let hooked = ref [] and sampled = ref [] and fired = ref [] in
  E.set_advance_hook e (Some (fun time -> hooked := time :: !hooked));
  E.set_sampler e ~period:1.0 (fun b -> sampled := b :: !sampled);
  let l = E.lane (fun () -> fired := E.now e :: !fired) in
  List.iter (fun at -> E.lane_push e l ~at) [ 0.5; 1.5; 1.5; 30.0 ];
  Alcotest.(check int) "queued entries are pending" 4 (E.pending e);
  Alcotest.(check int) "none on the wheel" 0 e.E.wheel.TW.pushed;
  Alcotest.(check bool) "stopped at the horizon" true
    (E.run ~until:1.0 e = E.Horizon_reached);
  Alcotest.(check (float 0.0)) "clock at until" 1.0 (E.now e);
  Alcotest.(check int) "three still queued" 3 (E.pending e);
  Alcotest.(check bool) "event budget" true
    (E.run ~max_events:2 e = E.Budget_exhausted);
  Alcotest.(check int) "processed" 2 e.E.processed;
  ignore (E.run e);
  Alcotest.(check (list (float 0.0)))
    "fired in order" [ 0.5; 1.5; 1.5; 30.0 ] (List.rev !fired);
  Alcotest.(check (list (float 0.0))) "hook per entry" (List.rev !fired)
    (List.rev !hooked);
  Alcotest.(check (list (float 0.0))) "samples" [ 1.0; 2.0 ]
    (List.rev !sampled);
  Alcotest.(check int) "drained" 0 (E.pending e);
  Alcotest.(check bool) "lane empty" true (E.lane_is_empty l)

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

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_wheel_heap_identical;
      prop_timers_match_reference;
      prop_lanes_match_reference;
    ]

let () =
  Alcotest.run "wheel"
    [
      ( "edges",
        [
          Alcotest.test_case "same-time burst" `Quick test_same_time_burst;
          Alcotest.test_case "single-entry slot" `Quick test_single_entry_slot;
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
      ( "timers",
        [
          Alcotest.test_case "orphaned earlier re-arm" `Quick
            test_orphaned_earlier_rearm;
          Alcotest.test_case "disarm then re-arm" `Quick test_disarm_then_rearm;
          Alcotest.test_case "re-arm past the horizon" `Quick
            test_rearm_past_horizon;
          Alcotest.test_case "deferred timer tie" `Quick test_deferred_tie;
          Alcotest.test_case "stale pop is silent" `Quick
            test_stale_pop_is_silent;
        ] );
      ( "lanes",
        [
          Alcotest.test_case "three-way tie" `Quick test_lane_three_way_tie;
          Alcotest.test_case "drains beside another" `Quick
            test_lane_drains_beside_another;
          Alcotest.test_case "push rejected" `Quick test_lane_push_rejected;
          Alcotest.test_case "push on another engine rejected" `Quick
            test_lane_other_engine_rejected;
          Alcotest.test_case "entries are events" `Quick
            test_lane_entries_are_events;
        ] );
      ("properties", qsuite);
    ]
