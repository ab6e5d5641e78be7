(* Tests for the discrete-event simulation core: event ordering, timer
   cancellation, horizons, budgets, and heap behaviour. *)

module EQ = Ebrc.Event_queue
module E = Ebrc.Engine

let feq ?(eps = 1e-12) a b =
  Alcotest.(check bool)
    (Printf.sprintf "%.12g ~ %.12g" a b)
    true
    (abs_float (a -. b) <= eps *. (1.0 +. abs_float a +. abs_float b))

(* ------------------------- event queue ------------------------- *)

let test_queue_ordering () =
  let q = EQ.create () in
  List.iter (fun (t, v) -> EQ.push q ~time:t v)
    [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  let pop () = match EQ.pop q with Some (_, v) -> v | None -> "?" in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "empty" true (EQ.is_empty q)

let test_queue_fifo_ties () =
  let q = EQ.create () in
  List.iteri (fun i v -> ignore i; EQ.push q ~time:1.0 v) [ "x"; "y"; "z" ];
  let pop () = match EQ.pop q with Some (_, v) -> v | None -> "?" in
  Alcotest.(check string) "tie 1" "x" (pop ());
  Alcotest.(check string) "tie 2" "y" (pop ());
  Alcotest.(check string) "tie 3" "z" (pop ())

let test_queue_grows () =
  let q = EQ.create () in
  for i = 0 to 999 do
    EQ.push q ~time:(float_of_int (999 - i)) i
  done;
  Alcotest.(check int) "size" 1000 (EQ.size q);
  let prev = ref neg_infinity in
  for _ = 1 to 1000 do
    match EQ.pop q with
    | Some (t, _) ->
        Alcotest.(check bool) "sorted" true (t >= !prev);
        prev := t
    | None -> Alcotest.fail "queue drained early"
  done

let test_queue_interleaved_push_pop () =
  let q = EQ.create () in
  EQ.push q ~time:5.0 5;
  EQ.push q ~time:1.0 1;
  (match EQ.pop q with
  | Some (t, v) ->
      feq t 1.0;
      Alcotest.(check int) "v" 1 v
  | None -> Alcotest.fail "empty");
  EQ.push q ~time:3.0 3;
  (match EQ.pop q with
  | Some (_, v) -> Alcotest.(check int) "v" 3 v
  | None -> Alcotest.fail "empty");
  match EQ.pop q with
  | Some (_, v) -> Alcotest.(check int) "v" 5 v
  | None -> Alcotest.fail "empty"

let test_queue_peek_and_clear () =
  let q = EQ.create () in
  Alcotest.(check (option (float 0.0))) "peek empty" None (EQ.peek_time q);
  EQ.push q ~time:2.5 ();
  Alcotest.(check (option (float 1e-12))) "peek" (Some 2.5) (EQ.peek_time q);
  EQ.clear q;
  Alcotest.(check bool) "cleared" true (EQ.is_empty q)

let test_queue_clear_replay () =
  (* clear must reset the FIFO tie-break counter: replaying the same
     push sequence after clear pops in the same order as a fresh
     queue. *)
  let q = EQ.create () in
  let fill () =
    List.iter (fun (t, v) -> EQ.push q ~time:t v)
      [ (2.0, "b1"); (1.0, "a1"); (2.0, "b2"); (1.0, "a2") ]
  in
  let drain () =
    let rec go acc =
      match EQ.pop q with Some (_, v) -> go (v :: acc) | None -> List.rev acc
    in
    go []
  in
  fill ();
  let first = drain () in
  fill ();
  EQ.clear q;
  fill ();
  Alcotest.(check (list string)) "replay after clear" first (drain ())

let test_queue_nan_rejected () =
  let q = EQ.create () in
  match EQ.push q ~time:Float.nan () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --------------------------- engine ---------------------------- *)

let test_engine_runs_in_order () =
  let e = E.create () in
  let log = ref [] in
  ignore (E.schedule e ~at:2.0 (fun () -> log := 2 :: !log));
  ignore (E.schedule e ~at:1.0 (fun () -> log := 1 :: !log));
  ignore (E.schedule e ~at:3.0 (fun () -> log := 3 :: !log));
  let reason = E.run e in
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check bool) "empty reason" true (reason = E.Queue_empty);
  feq (E.now e) 3.0

let test_engine_schedule_after () =
  let e = E.create () in
  let fired_at = ref nan in
  ignore
    (E.schedule e ~at:1.0 (fun () ->
         ignore
           (E.schedule_after e ~delay:0.5 (fun () -> fired_at := E.now e))));
  ignore (E.run e);
  feq !fired_at 1.5

let test_engine_past_rejected () =
  let e = E.create () in
  ignore (E.schedule e ~at:5.0 (fun () ->
      match E.schedule e ~at:1.0 (fun () -> ()) with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ()));
  ignore (E.run e)

let test_engine_cancel () =
  let e = E.create () in
  let fired = ref false in
  let h = E.schedule e ~at:1.0 (fun () -> fired := true) in
  E.disarm h;
  ignore (E.run e);
  Alcotest.(check bool) "cancelled" false !fired;
  Alcotest.(check bool) "disarmed" false (E.armed h)

let test_engine_cancel_from_event () =
  (* An earlier event cancels a later one at the same or later time. *)
  let e = E.create () in
  let fired = ref false in
  let h = ref None in
  ignore
    (E.schedule e ~at:1.0 (fun () ->
         match !h with Some h -> E.disarm h | None -> ()));
  h := Some (E.schedule e ~at:2.0 (fun () -> fired := true));
  ignore (E.run e);
  Alcotest.(check bool) "not fired" false !fired

let test_engine_horizon_resume () =
  let e = E.create () in
  let log = ref [] in
  ignore (E.schedule e ~at:1.0 (fun () -> log := 1 :: !log));
  ignore (E.schedule e ~at:10.0 (fun () -> log := 10 :: !log));
  let r1 = E.run ~until:5.0 e in
  Alcotest.(check bool) "horizon" true (r1 = E.Horizon_reached);
  feq (E.now e) 5.0;
  Alcotest.(check (list int)) "only first" [ 1 ] (List.rev !log);
  let r2 = E.run ~until:20.0 e in
  Alcotest.(check bool) "drained" true (r2 = E.Queue_empty);
  Alcotest.(check (list int)) "both" [ 1; 10 ] (List.rev !log)

let test_engine_budget () =
  let e = E.create () in
  for i = 1 to 10 do
    ignore (E.schedule e ~at:(float_of_int i) (fun () -> ()))
  done;
  let r = E.run ~max_events:3 e in
  Alcotest.(check bool) "budget" true (r = E.Budget_exhausted);
  Alcotest.(check int) "processed" 3 (E.processed e)

let test_engine_stop () =
  let e = E.create () in
  let after_stop = ref false in
  ignore (E.schedule e ~at:1.0 (fun () -> E.stop e));
  ignore (E.schedule e ~at:2.0 (fun () -> after_stop := true));
  let r = E.run e in
  Alcotest.(check bool) "stopped" true (r = E.Stopped);
  Alcotest.(check bool) "later event skipped" false !after_stop

(* ------------------------ watchdog budgets ---------------------- *)

let test_engine_sim_watchdog () =
  let e = E.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    ignore (E.schedule e ~at:(float_of_int i) (fun () -> incr fired))
  done;
  (match E.run ~sim_budget:4.5 e with
  | _ -> Alcotest.fail "expected Budget_exceeded"
  | exception E.Budget_exceeded { kind; budget; at; events } ->
      Alcotest.(check bool) "sim-time kind" true (kind = E.Sim_time);
      feq budget 4.5;
      feq at 5.0;
      Alcotest.(check int) "events before abort" 4 events);
  (* Partial statistics are salvageable: the engine stays queryable at
     the last fired event, and an unbudgeted resume drains the rest. *)
  feq (E.now e) 4.0;
  Alcotest.(check int) "events fired within budget" 4 !fired;
  let r = E.run e in
  Alcotest.(check bool) "resume drains" true (r = E.Queue_empty);
  Alcotest.(check int) "all fired after resume" 10 !fired

let test_engine_sim_watchdog_within_budget () =
  (* A run that stays inside the budget is indistinguishable from an
     unbudgeted one. *)
  let e = E.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    ignore (E.schedule e ~at:(0.1 *. float_of_int i) (fun () -> incr fired))
  done;
  let r = E.run ~sim_budget:100.0 e in
  Alcotest.(check bool) "drained" true (r = E.Queue_empty);
  Alcotest.(check int) "all fired" 10 !fired

let test_engine_wall_watchdog () =
  let e = E.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 1_000_000 then ignore (E.schedule_after e ~delay:1e-6 tick)
  in
  ignore (E.schedule e ~at:0.0 tick);
  match E.run ~wall_budget:1e-6 e with
  | _ -> Alcotest.fail "expected wall-clock Budget_exceeded"
  | exception E.Budget_exceeded { kind; budget; at; events } ->
      Alcotest.(check bool) "wall-clock kind" true (kind = E.Wall_clock);
      feq budget 1e-6;
      Alcotest.(check bool) "elapsed reported" true (at >= 0.0);
      Alcotest.(check bool) "aborted early" true (events < 1_000_000)

(* The --sim-budget / --wall-budget decoder: a malformed budget is a
   usage error with one of these messages, never a silently unbudgeted
   run; empty and "0" are malformed too. *)
let test_engine_budget_parse () =
  Alcotest.(check (result (float 0.0) string))
    "valid value parses" (Ok 2.5)
    (E.parse_budget ~what:"sim-time" " 2.5 ");
  List.iter
    (fun (value, msg) ->
      Alcotest.(check (result (float 0.0) string))
        value (Error msg)
        (E.parse_budget ~what:"sim-time" value))
    [
      ("10s", "invalid sim-time budget \"10s\"");
      ("", "invalid sim-time budget \"\"");
      ("0", "sim-time budget must be a positive float");
      ("-1", "sim-time budget must be a positive float");
      ("inf", "sim-time budget must be a positive float");
    ]

let test_engine_budget_defaults () =
  (* set_sim_budget installs a process-wide default that run picks up
     when not given an explicit budget. *)
  E.set_sim_budget (Some 2.5);
  Fun.protect
    ~finally:(fun () -> E.set_sim_budget None)
    (fun () ->
      let e = E.create () in
      for i = 1 to 5 do
        ignore (E.schedule e ~at:(float_of_int i) (fun () -> ()))
      done;
      (match E.run e with
      | _ -> Alcotest.fail "expected Budget_exceeded from global default"
      | exception E.Budget_exceeded { kind; budget; _ } ->
          Alcotest.(check bool) "sim-time kind" true (kind = E.Sim_time);
          feq budget 2.5);
      (* An explicit budget overrides the global default. *)
      let e2 = E.create () in
      ignore (E.schedule e2 ~at:4.0 (fun () -> ()));
      let r = E.run ~sim_budget:10.0 e2 in
      Alcotest.(check bool) "explicit override drains" true
        (r = E.Queue_empty));
  let raised =
    try
      E.set_sim_budget (Some (-1.0));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative budget rejected" true raised

let test_engine_self_scheduling_chain () =
  (* A classic send-loop: each event schedules the next. *)
  let e = E.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 100 then ignore (E.schedule_after e ~delay:0.1 tick)
  in
  ignore (E.schedule e ~at:0.0 tick);
  ignore (E.run e);
  Alcotest.(check int) "count" 100 !count;
  feq ~eps:1e-9 (E.now e) 9.9

let test_engine_simultaneous_fifo () =
  let e = E.create () in
  let log = ref [] in
  ignore (E.schedule e ~at:1.0 (fun () -> log := "a" :: !log));
  ignore (E.schedule e ~at:1.0 (fun () -> log := "b" :: !log));
  ignore (E.run e);
  Alcotest.(check (list string)) "fifo ties" [ "a"; "b" ] (List.rev !log)

let test_engine_sampler_boundaries () =
  (* The sampler fires once per crossing event, labeled with the first
     missed boundary, and skips boundaries the simulation jumped over
     entirely (events at 0.5/1.2/2.7/5.1 with period 1.0 cross 1.0,
     2.0 and 3.0 once each; 4.0 and 5.0 are jumped by the same event
     that crosses 3.0). *)
  let e = E.create () in
  let fired = ref [] in
  E.set_sampler e ~period:1.0 (fun b -> fired := b :: !fired);
  List.iter
    (fun t -> ignore (E.schedule e ~at:t (fun () -> ())))
    [ 0.5; 1.2; 2.7; 5.1 ];
  ignore (E.run e);
  Alcotest.(check (list (float 1e-12)))
    "boundaries" [ 1.0; 2.0; 3.0 ] (List.rev !fired)

let test_engine_sampler_cleared () =
  let e = E.create () in
  let n = ref 0 in
  E.set_sampler e ~period:1.0 (fun _ -> incr n);
  E.clear_sampler e;
  ignore (E.schedule e ~at:5.0 (fun () -> ()));
  ignore (E.run e);
  Alcotest.(check int) "no samples after clear" 0 !n;
  (* Contract checks: invalid periods are rejected loudly. *)
  (match E.set_sampler e ~period:0.0 (fun _ -> ()) with
  | () -> Alcotest.fail "expected Invalid_argument (zero period)"
  | exception Invalid_argument _ -> ());
  match E.set_sampler e ~period:Float.nan (fun _ -> ()) with
  | () -> Alcotest.fail "expected Invalid_argument (NaN period)"
  | exception Invalid_argument _ -> ()

(* ----------------------- constant-delay streams ------------------- *)

(* Link service and propagation, pacing ticks, and TFRC feedback / TCP
   ack deliveries are never cancelled and go through [schedule_unit].
   The "lanes" suite name is historical: these streams once rode
   dedicated FIFO rings. They share the wheel with cancellable events
   and must interleave with them exactly by (time, scheduling order). *)

let test_lane_merge_order () =
  (* Interleave handle events and unit events at equal times: the
     dispatch order must equal the scheduling order. *)
  let e = E.create () in
  let log = ref [] in
  let say v () = log := v :: !log in
  ignore (E.schedule e ~at:1.0 (say "h1"));
  E.schedule_unit e ~at:1.0 (say "l1");
  ignore (E.schedule e ~at:1.0 (say "h2"));
  E.schedule_unit e ~at:1.0 (say "l2");
  E.schedule_unit e ~at:2.0 (say "l3");
  ignore (E.schedule e ~at:2.0 (say "h3"));
  ignore (E.run e);
  Alcotest.(check (list string))
    "merged order" [ "h1"; "l1"; "h2"; "l2"; "l3"; "h3" ]
    (List.rev !log)

let test_lane_two_lanes_merge () =
  (* Two streams, each advancing by its own constant delay, plus a
     handle event: ties resolve by scheduling order across streams. *)
  let e = E.create () in
  let log = ref [] in
  let say v () = log := v :: !log in
  let a ~delay v = E.schedule_after_unit e ~delay (say v) in
  let b ~at v = E.schedule_unit e ~at (say v) in
  a ~delay:1.0 "a1";
  b ~at:1.0 "b1";
  ignore (E.schedule e ~at:1.0 (say "h1"));
  b ~at:1.5 "b2";
  a ~delay:2.0 "a2";
  ignore (E.run e);
  Alcotest.(check (list string))
    "two streams + handle event" [ "a1"; "b1"; "h1"; "b2"; "a2" ]
    (List.rev !log)

let test_lane_past_rejected () =
  let e = E.create () in
  ignore (E.schedule e ~at:5.0 (fun () ->
      (match E.schedule_unit e ~at:1.0 (fun () -> ()) with
      | () -> Alcotest.fail "expected Invalid_argument (past)"
      | exception Invalid_argument _ -> ());
      match E.schedule_unit e ~at:Float.nan (fun () -> ()) with
      | () -> Alcotest.fail "expected Invalid_argument (NaN)"
      | exception Invalid_argument _ -> ()));
  ignore (E.run e)

let test_lane_ring_growth () =
  (* 500 unit events inside the wheel window outgrow its initial
     256-entry arena while pending; the stream must fire in order and
     count correctly. *)
  let e = E.create () in
  let fired = ref [] in
  for i = 1 to 500 do
    E.schedule_unit e ~at:(0.01 *. float_of_int i) (fun () ->
        fired := i :: !fired)
  done;
  Alcotest.(check int) "pending counts unit events" 500 (E.pending e);
  ignore (E.run e);
  Alcotest.(check (list int)) "all fired in order" (List.init 500 succ)
    (List.rev !fired);
  Alcotest.(check int) "drained" 0 (E.pending e)

let test_lane_horizon () =
  (* A horizon between unit events pauses and resumes cleanly. *)
  let e = E.create () in
  let log = ref [] in
  E.schedule_unit e ~at:1.0 (fun () -> log := 1 :: !log);
  E.schedule_unit e ~at:10.0 (fun () -> log := 10 :: !log);
  let r1 = E.run ~until:5.0 e in
  Alcotest.(check bool) "horizon" true (r1 = E.Horizon_reached);
  Alcotest.(check (list int)) "only first" [ 1 ] (List.rev !log);
  let r2 = E.run e in
  Alcotest.(check bool) "drained" true (r2 = E.Queue_empty);
  Alcotest.(check (list int)) "both" [ 1; 10 ] (List.rev !log)

let test_schedule_after_contract () =
  (* schedule_after rejects negative and NaN delays loudly instead of
     silently scheduling in the past. *)
  let e = E.create () in
  (match E.schedule_after e ~delay:(-1.0) (fun () -> ()) with
  | _ -> Alcotest.fail "expected Invalid_argument (negative delay)"
  | exception Invalid_argument _ -> ());
  (match E.schedule_after e ~delay:Float.nan (fun () -> ()) with
  | _ -> Alcotest.fail "expected Invalid_argument (NaN delay)"
  | exception Invalid_argument _ -> ());
  (* Zero delay is legal: fires at the current time. *)
  let fired = ref false in
  ignore (E.schedule_after e ~delay:0.0 (fun () -> fired := true));
  ignore (E.run e);
  Alcotest.(check bool) "zero delay fires" true !fired

(* ------------------------- properties -------------------------- *)

let prop_heap_sorts =
  QCheck.Test.make ~name:"event queue pops in time order" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 200) (float_range 0.0 1e6))
    (fun times ->
      let q = EQ.create () in
      List.iter (fun t -> EQ.push q ~time:t ()) times;
      let rec drain prev =
        match EQ.pop q with
        | None -> true
        | Some (t, ()) -> t >= prev && drain t
      in
      drain neg_infinity)

let prop_engine_time_monotone =
  QCheck.Test.make ~name:"engine time is monotone" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range 0.0 100.0))
    (fun times ->
      let e = E.create () in
      let ok = ref true in
      let prev = ref 0.0 in
      List.iter
        (fun t ->
          ignore
            (E.schedule e ~at:t (fun () ->
                 if E.now e < !prev then ok := false;
                 prev := E.now e)))
        times;
      ignore (E.run e);
      !ok)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_heap_sorts; prop_engine_time_monotone ]

let () =
  Alcotest.run "sim"
    [
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_queue_ordering;
          Alcotest.test_case "fifo ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "grows" `Quick test_queue_grows;
          Alcotest.test_case "interleaved" `Quick test_queue_interleaved_push_pop;
          Alcotest.test_case "peek/clear" `Quick test_queue_peek_and_clear;
          Alcotest.test_case "clear replay" `Quick test_queue_clear_replay;
          Alcotest.test_case "nan rejected" `Quick test_queue_nan_rejected;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
          Alcotest.test_case "schedule_after" `Quick test_engine_schedule_after;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "cancel from event" `Quick test_engine_cancel_from_event;
          Alcotest.test_case "horizon + resume" `Quick test_engine_horizon_resume;
          Alcotest.test_case "budget" `Quick test_engine_budget;
          Alcotest.test_case "stop" `Quick test_engine_stop;
          Alcotest.test_case "sampler boundaries" `Quick
            test_engine_sampler_boundaries;
          Alcotest.test_case "sampler cleared" `Quick
            test_engine_sampler_cleared;
          Alcotest.test_case "sim-time watchdog" `Quick
            test_engine_sim_watchdog;
          Alcotest.test_case "watchdog within budget" `Quick
            test_engine_sim_watchdog_within_budget;
          Alcotest.test_case "wall-clock watchdog" `Quick
            test_engine_wall_watchdog;
          Alcotest.test_case "budget defaults" `Quick
            test_engine_budget_defaults;
          Alcotest.test_case "budget parse" `Quick test_engine_budget_parse;
          Alcotest.test_case "self-scheduling chain" `Quick test_engine_self_scheduling_chain;
          Alcotest.test_case "simultaneous fifo" `Quick test_engine_simultaneous_fifo;
        ] );
      ( "lanes",
        [
          Alcotest.test_case "merge order" `Quick test_lane_merge_order;
          Alcotest.test_case "two lanes merge" `Quick test_lane_two_lanes_merge;
          Alcotest.test_case "past rejected" `Quick test_lane_past_rejected;
          Alcotest.test_case "ring growth" `Quick test_lane_ring_growth;
          Alcotest.test_case "horizon" `Quick test_lane_horizon;
          Alcotest.test_case "schedule_after contract" `Quick
            test_schedule_after_contract;
        ] );
      ("properties", qsuite);
    ]
