(* Discrete-event simulation engine.

   Events are thunks scheduled at absolute times; [run] drains the queue
   until a time horizon or event budget is hit. Anything that may be
   stopped or moved before it fires is a re-armable {!timer}: each arm
   draws its tie-break ticket at arm time, a re-arm to a later deadline
   only moves the timer's stored (deadline, ticket) — the queued entry
   re-inserts itself there when it pops early — and a disarm is a flag
   write. Retransmit and delayed-ACK timers, which are re-armed on
   nearly every ACK and rarely expire, thus cost a ticket and two field
   writes per re-arm instead of a queued entry to cascade, pop and
   throw away (Varghese & Lauck's start/stop-dominated case).

   Every bounded-horizon event rides a hierarchical timing wheel
   ({!Timing_wheel}); the binary heap holds only overflow (far-future,
   non-finite, or behind-cursor) events. The wheel draws tie-break
   tickets from the heap's own sequence counter and compares exact
   (time, seq) at extraction, so the merged dispatch order is the one a
   pure binary heap would produce — with a timer firing at the
   (deadline, ticket) of its last arm, as if every re-arm were a cancel
   plus a fresh schedule.

   Hot-path allocation: wheel-accepted unit events store their fire
   thunk directly in the slot arrays (no record at all); a timer is one
   record allocated when its owner is built, and arming it allocates
   nothing. The run loop peeks/pops through allocation-free accessors. *)

module Tm = Ebrc_telemetry.Telemetry

(* Probe keys: the engine keeps the counts itself ([processed],
   [discarded], the heap's ticket counter) and the telemetry layer
   reads them — the run loop never touches the registry. *)
let k_scheduled =
  Tm.Probe.counter ~help:"events scheduled and timers armed"
    "sim.events_scheduled"

let k_fired = Tm.Probe.counter ~help:"events executed" "sim.events_fired"

let k_discarded =
  Tm.Probe.counter
    ~help:"disarmed or superseded timer entries lazily discarded on pop"
    "sim.events_discarded"

let k_depth =
  Tm.Probe.gauge ~help:"event-queue depth (stale timer entries included)"
    "sim.queue_depth"

(* A timer is queued as at most one live entry (time, seq) with
   (time, seq) <= (deadline, ticket) of its current arm; entries it
   left behind by re-arming earlier are orphans, told apart by seq. *)
type timer = {
  action : unit -> unit;
  at : floatarray;
      (* [0] = deadline of the current arm, [1] = time of the live
         entry. Cells, not mutable float fields: a float field in this
         mixed record would box on every arm. *)
  mutable ticket : int;  (* ticket of the current arm; -1 = disarmed *)
  mutable entry : int;  (* seq of the live queued entry; -1 = none *)
}

let timer action =
  { action; at = Float.Array.make 2 0.0; ticket = -1; entry = -1 }

(* Filler for the wheel's empty and unit-event cells; never armed. *)
let null_timer = timer ignore

let nop_hook (_ : float) = ()

type t = {
  queue : timer Event_queue.t;
  mutable now : float;
      (* Boxed field, deliberately: [now] is read (cross-module) far
         more often than it is stored, and returning the field is just
         the existing box — a floatarray cell here measured {e worse},
         because every [Engine.now] call would box a fresh float. *)
  mutable processed : int;
  wheel : timer Timing_wheel.t;
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
  mutable discarded : int;
      (* popped entries of disarmed timers, and orphans *)
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
      wheel = Timing_wheel.create ~null:null_timer ();
      advance_hook = nop_hook;
      has_hook = false;
      sampler = nop_hook;
      next_sample = infinity;
      sample_period = 0.0;
      discarded = 0;
      probes = Tm.Probe.create ();
    }
  in
  (* Every schedule and every arm draws exactly one tie-break ticket
     from the heap's counter, wheel-bound or not (a deferred re-insert
     reuses its arm's), so the counter is the schedule count. *)
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

(* Unit events: the [fits] check runs before any ticket is drawn — a
   wheel-accepted event takes its ticket from the heap's [next_seq]
   counter inside [try_push], an overflow event draws the very same
   counter value here — so tickets are issued in scheduling order
   regardless of destination, which is the whole dispatch-order
   argument. On the heap a unit event rides a fresh timer, armed and
   queued at its ticket. *)
let schedule_unit t ~at fire =
  if not (at >= t.now) then check_at_fail t at;
  if not (Timing_wheel.try_push t.wheel t.queue ~now:t.now ~at fire) then begin
    let q = t.queue in
    let seq = q.Event_queue.next_seq in
    q.Event_queue.next_seq <- seq + 1;
    let tm = timer fire in
    tm.ticket <- seq;
    tm.entry <- seq;
    Event_queue.push_seq q ~time:at ~seq tm
  end

(* Queue [tm]'s live entry at (at, seq): the wheel when it fits, the
   overflow heap otherwise. *)
let enqueue t tm ~at ~seq =
  tm.entry <- seq;
  Float.Array.unsafe_set tm.at 1 at;
  if Timing_wheel.fits t.wheel ~now:t.now ~at then
    Timing_wheel.push t.wheel ~time:at ~seq tm.action tm
  else Event_queue.push_seq t.queue ~time:at ~seq tm

(* The ticket is drawn here, as an eager schedule would. A live entry
   due no later than the new deadline stays where it is and re-inserts
   itself at (deadline, ticket) when it pops; an earlier deadline needs
   a fresh entry, and the old one is orphaned. *)
let arm t tm ~at =
  if not (at >= t.now) then check_at_fail t at;
  let q = t.queue in
  let seq = q.Event_queue.next_seq in
  q.Event_queue.next_seq <- seq + 1;
  tm.ticket <- seq;
  Float.Array.unsafe_set tm.at 0 at;
  if tm.entry < 0 || Float.Array.unsafe_get tm.at 1 > at then
    enqueue t tm ~at ~seq

let schedule t ~at fire =
  let tm = timer fire in
  arm t tm ~at;
  tm

(* A negative delay would silently schedule into the simulated past and
   a NaN delay would poison queue ordering; both are caller bugs, so
   reject loudly rather than clamp. [not (delay >= 0)] catches both. *)
let check_delay delay =
  if not (delay >= 0.0) then
    invalid_arg
      (Printf.sprintf "Engine.schedule_after: negative or NaN delay %g" delay)

let arm_after t tm ~delay =
  check_delay delay;
  arm t tm ~at:(t.now +. delay)

let schedule_after t ~delay fire =
  check_delay delay;
  schedule t ~at:(t.now +. delay) fire

let schedule_after_unit t ~delay fire =
  check_delay delay;
  schedule_unit t ~at:(t.now +. delay) fire

let disarm tm = tm.ticket <- -1
let armed tm = tm.ticket >= 0

(* Returned by [settle] for an entry that fires nothing; compared by
   address, and never handed out. *)
let skip () = ()

(* Timer entry [seq] reached the front of the queue. It fires only if
   it is the timer's live entry and carries the current arm's ticket.
   A live entry of a later arm re-inserts itself at that arm's
   (deadline, ticket); orphans and entries of a disarmed timer are
   discarded. Nothing here touches [now] or the fired count. *)
let settle t tm seq =
  if tm.entry <> seq then begin
    t.discarded <- t.discarded + 1;
    skip
  end
  else begin
    tm.entry <- -1;
    let ticket = tm.ticket in
    if ticket = seq then begin
      tm.ticket <- -1;
      tm.action
    end
    else begin
      if ticket < 0 then t.discarded <- t.discarded + 1
      else enqueue t tm ~at:(Float.Array.unsafe_get tm.at 0) ~seq:ticket;
      skip
    end
  end

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

(* Process-wide defaults, applied when [run] is not given an explicit
   budget. Orchestration guards, not simulation parameters: a run that
   stays within budget is bit-identical to an unbudgeted one, which is
   why budgets are deliberately absent from the result-cache key. The
   CLI sets them from EBRC_SIM_BUDGET / EBRC_WALL_BUDGET before
   dispatch. *)
let default_sim_budget = ref None
let default_wall_budget = ref None

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
         else begin
           (* A unit event on the wheel fires straight from its slot; a
              timer entry, on either structure, goes through [settle]
              and may fire nothing. The wheel's handle cell is read
              only under its flag (valid: select_all just ran
              [ensure]), so unit entries skip the handle load. *)
           let fire =
             if src = -2 then begin
               let w = t.wheel in
               let idx = w.Timing_wheel.min_idx in
               if Bytes.unsafe_get w.Timing_wheel.flags idx = '\000' then
                 Timing_wheel.drop_min w
               else begin
                 let tm = Array.unsafe_get w.Timing_wheel.handles idx in
                 let seq = w.Timing_wheel.min_seq in
                 ignore (Timing_wheel.drop_min w : unit -> unit);
                 settle t tm seq
               end
             end
             else begin
               let q = t.queue in
               let seq = Array.unsafe_get q.Event_queue.seqs 0 in
               settle t (Event_queue.pop_exn q) seq
             end
           in
           if fire != skip then begin
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
