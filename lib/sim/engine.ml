(* Discrete-event simulation engine.

   Events are thunks scheduled at absolute times; [run] drains the queue
   until a time horizon or event budget is hit. Cancellation is by
   generation counter: a [handle] is invalidated rather than removed from
   the heap (O(1) cancel, lazily discarded on pop) — the standard
   technique for simulators with many retransmit-timer resets.

   Every bounded-horizon event rides a hierarchical timing wheel
   ({!Timing_wheel}); the binary heap holds only overflow (far-future,
   non-finite, or behind-cursor) events. The wheel draws tie-break
   tickets from the heap's own sequence counter and compares exact
   (time, seq) at extraction, so the merged dispatch order is the one a
   pure binary heap would produce.

   Hot-path allocation: wheel-accepted events store their fire thunk
   directly in the slot arrays (no event record at all); never-cancelled
   events share one sentinel handle ([schedule_unit]), and the run loop
   peeks/pops through allocation-free accessors. *)

module Tm = Ebrc_telemetry.Telemetry

(* Probe keys: the engine keeps the counts itself ([processed],
   [discarded], the heap's ticket counter) and the telemetry layer
   reads them — the run loop never touches the registry. *)
let k_scheduled =
  Tm.Probe.counter ~help:"events pushed onto the simulator queue"
    "sim.events_scheduled"

let k_fired = Tm.Probe.counter ~help:"events executed" "sim.events_fired"

let k_discarded =
  Tm.Probe.counter ~help:"cancelled events lazily discarded on pop"
    "sim.events_discarded"

let k_depth =
  Tm.Probe.gauge ~help:"event-queue depth (cancelled entries included)"
    "sim.queue_depth"

type handle = { mutable cancelled : bool }

(* Shared sentinel for events scheduled without a handle; never
   cancelled. *)
let no_handle = { cancelled = false }

type event = { fire : unit -> unit; handle : handle }

let nop_hook (_ : float) = ()

type t = {
  queue : event Event_queue.t;
  mutable now : float;
      (* Boxed field, deliberately: [now] is read (cross-module) far
         more often than it is stored, and returning the field is just
         the existing box — a floatarray cell here measured {e worse},
         because every [Engine.now] call would box a fresh float. *)
  mutable processed : int;
  mutable horizon : float;
  wheel : handle Timing_wheel.t;
  mutable advance_hook : float -> unit;
      (* Called with the event time before each live event fires (the
         hybrid fluid advance). *)
  mutable has_hook : bool;
      (* Split from the closure so the unused-hook cost in the run loop
         is one immediate-bool load and branch, not a closure compare. *)
  mutable sampler : float -> unit;
      (* Sim-time telemetry sampler (the live-stream cadence). *)
  mutable next_sample : float;
      (* Next sampling boundary; [infinity] when no sampler is set, so
         the disabled run-loop cost is one float compare per event. *)
  mutable sample_period : float;
  mutable discarded : int;  (* cancelled events dropped at pop *)
  probes : Tm.Probe.set;
      (* This run's probes: the engine's own counts, the wheel's, and
         those of every component built on this engine. *)
}

let pending t = Event_queue.size t.queue + Timing_wheel.count t.wheel

let create () =
  let t =
    {
      queue = Event_queue.create ();
      now = 0.0;
      processed = 0;
      horizon = infinity;
      wheel = Timing_wheel.create ~null:no_handle ();
      advance_hook = nop_hook;
      has_hook = false;
      sampler = nop_hook;
      next_sample = infinity;
      sample_period = 0.0;
      discarded = 0;
      probes = Tm.Probe.create ();
    }
  in
  (* Every schedule draws exactly one tie-break ticket from the heap's
     counter, wheel-bound or not, so the counter is the schedule
     count. *)
  Tm.Probe.add t.probes k_scheduled (fun () -> t.queue.Event_queue.next_seq);
  Tm.Probe.add t.probes k_fired (fun () -> t.processed);
  Tm.Probe.add t.probes k_discarded (fun () -> t.discarded);
  Tm.Probe.add t.probes k_depth (fun () -> pending t);
  Timing_wheel.add_probes t.wheel t.probes;
  t

let set_advance_hook t = function
  | None ->
      t.advance_hook <- nop_hook;
      t.has_hook <- false
  | Some f ->
      t.advance_hook <- f;
      t.has_hook <- true

let set_sampler t ~period f =
  if not (period > 0.0 && Float.is_finite period) then
    invalid_arg "Engine.set_sampler: period must be > 0 and finite";
  t.sampler <- f;
  t.sample_period <- period;
  t.next_sample <- t.now +. period

let clear_sampler t =
  t.sampler <- nop_hook;
  t.next_sample <- infinity;
  t.sample_period <- 0.0

(* An event at [time] crossed the next sampling boundary: fire the
   sampler once, labelled with that boundary, then skip past any
   further boundaries the same event jumped over (one sample per
   crossing event, not per elapsed period — idle stretches produce no
   records, and the labels stay pure functions of the event times, so
   the sample sequence is deterministic). Kept out of line: the run
   loop pays one float compare when no boundary was crossed. *)
let fire_sampler t time =
  let b = t.next_sample in
  let p = t.sample_period in
  let next = ref (b +. p) in
  while !next <= time do
    next := !next +. p
  done;
  t.next_sample <- !next;
  t.sampler b

let now t = t.now
let processed t = t.processed

(* Cold path of the past/NaN check. The compare itself ([at >= t.now],
   which also rejects NaN) is inlined at each call site — without
   flambda a [check_at] helper would cost a call per schedule. *)
let check_at_fail t at =
  invalid_arg
    (Printf.sprintf "Engine.schedule: time %g is in the past (now %g)" at
       t.now)

(* Insert with a caller-supplied handle. The [fits] check runs before
   any ticket is drawn: a wheel-accepted event takes its ticket from
   the heap's [next_seq] counter, an overflow event lets the heap push
   draw the very same counter value — so tickets are issued in
   scheduling order regardless of destination, which is the whole
   dispatch-order argument. *)
let insert t ~at fire handle =
  if not (Timing_wheel.try_push t.wheel t.queue ~now:t.now ~at fire handle)
  then Event_queue.push t.queue ~time:at { fire; handle }

let schedule t ~at fire =
  if not (at >= t.now) then check_at_fail t at;
  let handle = { cancelled = false } in
  insert t ~at fire handle;
  handle

let schedule_unit t ~at fire =
  if not (at >= t.now) then check_at_fail t at;
  insert t ~at fire no_handle

(* A negative delay would silently schedule into the simulated past and
   a NaN delay would poison queue ordering; both are caller bugs, so
   reject loudly rather than clamp. [not (delay >= 0)] catches both. *)
let check_delay delay =
  if not (delay >= 0.0) then
    invalid_arg
      (Printf.sprintf "Engine.schedule_after: negative or NaN delay %g" delay)

let schedule_after t ~delay fire =
  check_delay delay;
  schedule t ~at:(t.now +. delay) fire

let schedule_after_unit t ~delay fire =
  check_delay delay;
  schedule_unit t ~at:(t.now +. delay) fire

(* Earliest source by (time, seq): -2 = wheel, 0 = heap, -1 = both
   empty. Returns a bare int (the caller recomputes the time by branch)
   so the hot loop allocates nothing; the wheel minimum is read through
   direct field loads because a cross-module float-returning call would
   box its result on every peek. *)
let select_all t =
  let w = t.wheel in
  let q = t.queue in
  if w.Timing_wheel.count0 = 0 && w.Timing_wheel.count1 = 0 then
    (if q.Event_queue.size = 0 then -1 else 0)
  else begin
    Timing_wheel.ensure w;
    if q.Event_queue.size = 0 then -2
    else begin
      let wt = Float.Array.unsafe_get w.Timing_wheel.fmin 0 in
      let ht = Array.unsafe_get q.Event_queue.times 0 in
      if
        wt < ht
        || (wt = ht
            && w.Timing_wheel.min_seq < Array.unsafe_get q.Event_queue.seqs 0)
      then -2
      else 0
    end
  end

let cancel handle = handle.cancelled <- true
let is_cancelled handle = handle.cancelled

type stop_reason = Queue_empty | Horizon_reached | Budget_exhausted | Stopped

exception Stop

let stop _t = raise Stop

(* --------------------------- watchdogs ----------------------------- *)

type budget_kind = Sim_time | Wall_clock

exception
  Budget_exceeded of {
    kind : budget_kind;
    budget : float;
    at : float;
    events : int;
  }

let parse_budget ~what s =
  match float_of_string_opt (String.trim s) with
  | Some b when b > 0.0 && Float.is_finite b -> Ok b
  | Some _ -> Error (what ^ " budget must be a positive float")
  | None -> Error (Printf.sprintf "invalid %s budget %S" what s)

let budget_of_env ~what var =
  match Sys.getenv_opt var with
  | None -> None
  | Some s -> (
      match parse_budget ~what s with
      | Ok b -> Some b
      | Error msg -> invalid_arg (var ^ ": " ^ msg))

(* Process-wide defaults, applied when [run] is not given an explicit
   budget. Orchestration guards, not simulation parameters: a run that
   stays within budget is bit-identical to an unbudgeted one, which is
   why budgets are deliberately absent from the result-cache key. A
   malformed env value fails at startup rather than silently leaving
   runs unbudgeted. *)
let default_sim_budget = ref (budget_of_env ~what:"sim-time" "EBRC_SIM_BUDGET")

let default_wall_budget =
  ref (budget_of_env ~what:"wall-clock" "EBRC_WALL_BUDGET")

let check_budget what = function
  | Some b when not (b > 0.0 && Float.is_finite b) ->
      invalid_arg (Printf.sprintf "Engine: %s budget must be > 0" what)
  | _ -> ()

let set_sim_budget b =
  check_budget "sim-time" b;
  default_sim_budget := b

let set_wall_budget b =
  check_budget "wall-clock" b;
  default_wall_budget := b

(* The run's counts go into the totals before the flight dump, so the
   postmortem shows what the aborted run did. *)
let budget_abort t e =
  Tm.Probe.absorb t.probes;
  Ebrc_telemetry.Flight.on_exn ~reason:"engine.budget" e;
  raise e

let run ?(until = infinity) ?(max_events = max_int) ?sim_budget ?wall_budget t
    =
  check_budget "sim-time" sim_budget;
  check_budget "wall-clock" wall_budget;
  let sim_budget =
    match sim_budget with Some _ -> sim_budget | None -> !default_sim_budget
  in
  let wall_budget =
    match wall_budget with Some _ -> wall_budget | None -> !default_wall_budget
  in
  (* Budgets resolve to a deadline once at entry; the per-event cost
     with watchdogs off is one float compare and one option match. *)
  let sim_deadline =
    match sim_budget with Some b -> t.now +. b | None -> infinity
  in
  let wall_t0 =
    match wall_budget with Some _ -> Tm.wall_now () | None -> 0.0
  in
  t.horizon <- until;
  let reason = ref Queue_empty in
  (try
     let continue = ref true in
     while !continue do
       let src = select_all t in
       if src = -1 then begin
         reason := Queue_empty;
         continue := false
       end
       else begin
         let time =
           if src = -2 then Float.Array.unsafe_get t.wheel.Timing_wheel.fmin 0
           else Array.unsafe_get t.queue.Event_queue.times 0
         in
         if time > sim_deadline then begin
           (* [t.now] stays at the last fired event: the engine (and the
              caller's per-flow measures) remain queryable, so partial
              statistics can be salvaged by the handler. *)
           let e =
             Budget_exceeded
               { kind = Sim_time; budget = Option.get sim_budget; at = time;
                 events = t.processed }
           in
           budget_abort t e
         end;
         (match wall_budget with
          | Some b when t.processed land 1023 = 0 ->
              let elapsed = Tm.wall_now () -. wall_t0 in
              if elapsed > b then begin
                let e =
                  Budget_exceeded
                    { kind = Wall_clock; budget = b; at = elapsed;
                      events = t.processed }
                in
                budget_abort t e
              end
          | _ -> ());
         if time > until then begin
           (* Leave it queued for a later resumed run and stop. *)
           t.now <- until;
           reason := Horizon_reached;
           continue := false
         end
         else if src = -2 then begin
           (* Wheel events mirror the heap pop exactly: a cancelled
              entry is dispatched and discarded without advancing
              [now], a live one fires. The handle is read through the
              exposed fields (valid: select_all just ran [ensure]);
              the flag gate means never-cancelled entries skip the
              handle load entirely. *)
           let w = t.wheel in
           let idx = w.Timing_wheel.min_idx in
           let cancelled =
             Bytes.unsafe_get w.Timing_wheel.flags idx <> '\000'
             && (w.Timing_wheel.handles.(idx)).cancelled
           in
           let fire = Timing_wheel.drop_min t.wheel in
           if cancelled then t.discarded <- t.discarded + 1
           else begin
             t.now <- time;
             t.processed <- t.processed + 1;
             if time >= t.next_sample then fire_sampler t time;
             if t.has_hook then t.advance_hook time;
             fire ();
             if t.processed >= max_events then begin
               reason := Budget_exhausted;
               continue := false
             end
           end
         end
         else begin
           let ev = Event_queue.pop_exn t.queue in
           if ev.handle.cancelled then t.discarded <- t.discarded + 1
           else begin
             t.now <- time;
             t.processed <- t.processed + 1;
             if time >= t.next_sample then fire_sampler t time;
             if t.has_hook then t.advance_hook time;
             ev.fire ();
             if t.processed >= max_events then begin
               reason := Budget_exhausted;
               continue := false
             end
           end
         end
       end
     done
   with
   | Stop -> reason := Stopped
   | e ->
       (* Count what ran before the failure; a budget abort already
          did, ahead of its flight dump. *)
       let bt = Printexc.get_raw_backtrace () in
       (match e with
        | Budget_exceeded _ -> ()
        | _ -> Tm.Probe.absorb t.probes);
       Printexc.raise_with_backtrace e bt);
  Tm.Probe.absorb t.probes;
  !reason
