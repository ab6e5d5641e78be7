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

   Every bounded-horizon event not on a lane (below) rides a
   hierarchical timing wheel ({!Timing_wheel}); the binary heap holds
   only overflow (far-future, non-finite, or behind-cursor) events.
   The wheel draws tie-break tickets from the heap's own sequence
   counter and compares exact (time, seq) at extraction, so the merged
   dispatch order is the one a pure binary heap would produce — with a
   timer firing at the
   (deadline, ticket) of its last arm, as if every re-arm were a cancel
   plus a fresh schedule.

   Beside the wheel, a component whose unit events come in
   nondecreasing time order behind one fixed action (a link's server
   and its constant-delay propagation line) owns a {!lane}: a FIFO ring
   of (time, ticket) entries. A lane push draws its ticket from the
   same counter at the same moment [schedule_unit] would, and the run
   loop merges the earliest lane head with the wheel and heap minima by
   (time, seq), so moving a stream onto a lane leaves the dispatch
   order untouched and only spares the wheel its push and pop.

   Hot-path allocation: wheel-accepted unit events store their fire
   thunk directly in the slot arrays (no record at all); a lane entry
   is a time and a ticket in its ring; a timer is one record allocated
   when its owner is built, and arming it allocates nothing. The run
   loop peeks/pops through allocation-free accessors. *)

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

(* A FIFO stream of unit events behind one action. [times]/[seqs] form
   a ring (capacity a power of two) of the queued entries in push
   order, which is also (time, seq) order: pushes are nondecreasing in
   time and each draws a fresh, larger ticket. *)
type lane = {
  fire : unit -> unit;
  mutable times : float array;
  mutable seqs : int array;
  mutable head : int;
  mutable len : int;
  mutable slot : int;  (* index in its engine's [lanes]; -1 = not listed *)
}

let lane fire =
  { fire; times = Array.make 8 0.0; seqs = Array.make 8 0; head = 0;
    len = 0; slot = -1 }

type t = {
  queue : timer Event_queue.t;
  clock : floatarray;
      (* [0] = the clock. A cell, not a mutable float field: a float
         field in this mixed record is a boxed pointer, so each fired
         event would allocate a box and pay a write barrier to store
         it. Read through the inlined {!now}. *)
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
  mutable lanes : lane array;  (* every lane pushed on this engine *)
  mutable lane_min : int;
      (* index in [lanes] of the non-empty lane whose head is earliest
         by (time, seq); -1 when all are empty. An int, so moving it
         pays no write barrier. *)
  mutable lane_count : int;  (* entries queued on all lanes *)
}

let[@inline] now t = Float.Array.unsafe_get t.clock 0

let pending t =
  Event_queue.size t.queue + Timing_wheel.count t.wheel + t.lane_count

let create () =
  let t =
    {
      queue = Event_queue.create ();
      clock = Float.Array.make 1 0.0;
      processed = 0;
      wheel = Timing_wheel.create ~null:null_timer ();
      advance_hook = nop_hook;
      has_hook = false;
      sampler = nop_hook;
      next_sample = infinity;
      sample_period = 0.0;
      discarded = 0;
      probes = Tm.Probe.create ();
      lanes = [||];
      lane_min = -1;
      lane_count = 0;
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
  t.next_sample <- now t +. period

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

let processed t = t.processed

(* Cold path of the past/NaN check. The compare itself ([at >= now t],
   which also rejects NaN) is inlined at each call site — without
   flambda a [check_at] helper would cost a call per schedule. *)
let check_at_fail t at =
  invalid_arg
    (Printf.sprintf "Engine.schedule: time %g is in the past (now %g)" at
       (now t))

(* Unit events: the [fits] check runs before any ticket is drawn — a
   wheel-accepted event takes its ticket from the heap's [next_seq]
   counter inside [try_push], an overflow event draws the very same
   counter value here — so tickets are issued in scheduling order
   regardless of destination, which is the whole dispatch-order
   argument. On the heap a unit event rides a fresh timer, armed and
   queued at its ticket. *)
let[@inline] schedule_unit t ~at fire =
  if not (at >= now t) then check_at_fail t at;
  if not (Timing_wheel.try_push t.wheel t.queue ~now:(now t) ~at fire)
  then begin
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
let[@inline] enqueue t tm ~at ~seq =
  tm.entry <- seq;
  Float.Array.unsafe_set tm.at 1 at;
  if Timing_wheel.fits t.wheel ~now:(now t) ~at then
    Timing_wheel.push t.wheel ~time:at ~seq tm.action tm
  else Event_queue.push_seq t.queue ~time:at ~seq tm

(* The ticket is drawn here, as an eager schedule would. A live entry
   due no later than the new deadline stays where it is and re-inserts
   itself at (deadline, ticket) when it pops; an earlier deadline needs
   a fresh entry, and the old one is orphaned. *)
let[@inline] arm t tm ~at =
  if not (at >= now t) then check_at_fail t at;
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
let check_delay_fail delay =
  invalid_arg
    (Printf.sprintf "Engine.schedule_after: negative or NaN delay %g" delay)

let[@inline] check_delay delay =
  if not (delay >= 0.0) then check_delay_fail delay

let[@inline] arm_after t tm ~delay =
  check_delay delay;
  arm t tm ~at:(now t +. delay)

let schedule_after t ~delay fire =
  check_delay delay;
  schedule t ~at:(now t +. delay) fire

let schedule_after_unit t ~delay fire =
  check_delay delay;
  schedule_unit t ~at:(now t +. delay) fire

let disarm tm = tm.ticket <- -1
let armed tm = tm.ticket >= 0

(* ------------------------------ lanes ------------------------------ *)

let lane_is_empty l = l.len = 0

let lane_order_fail l at =
  let last = l.times.((l.head + l.len - 1) land (Array.length l.seqs - 1)) in
  invalid_arg
    (Printf.sprintf "Engine.lane_push: time %g is before the lane's last \
                     entry %g" at last)

let lane_foreign_fail () =
  invalid_arg "Engine.lane_push: the lane belongs to another engine"

let lane_grow l =
  let cap = Array.length l.seqs in
  let times = Array.make (2 * cap) 0.0 and seqs = Array.make (2 * cap) 0 in
  for i = 0 to l.len - 1 do
    let j = (l.head + i) land (cap - 1) in
    times.(i) <- l.times.(j);
    seqs.(i) <- l.seqs.(j)
  done;
  l.times <- times;
  l.seqs <- seqs;
  l.head <- 0

(* A push into an empty lane: list the lane on its first push,
   re-anchor an idle wheel as a push onto it would, and make the lane
   the earliest if its new head is. A fresh ticket is larger than every
   queued one, so only a strictly earlier time wins. *)
let lane_started t l =
  if l.slot < 0 then begin
    l.slot <- Array.length t.lanes;
    t.lanes <- Array.append t.lanes [| l |]
  end;
  if t.lane_count = 1 then Timing_wheel.anchor t.wheel ~now:(now t);
  let m = t.lane_min in
  if
    m < 0
    || Array.unsafe_get l.times l.head
       < (let ml = Array.unsafe_get t.lanes m in
          Array.unsafe_get ml.times ml.head)
  then t.lane_min <- l.slot

(* The ticket is drawn where [schedule_unit] draws it for a
   wheel-accepted event: after the checks, before anything is queued.
   A lane listed on another engine is refused when it starts (it is
   empty), before it could become this engine's [lane_min]: its [slot]
   indexes the other engine's [lanes]. Inlined, so the caller's [at] stays an unboxed float; the rare
   paths are out of line. *)
let[@inline] lane_push t l ~at =
  if not (at >= now t) then check_at_fail t at;
  let n = l.len in
  if n > 0 then begin
    if
      at
      < Array.unsafe_get l.times
          ((l.head + n - 1) land (Array.length l.seqs - 1))
    then lane_order_fail l at
  end
  else if
    l.slot >= 0
    && (l.slot >= Array.length t.lanes
        || Array.unsafe_get t.lanes l.slot != l)
  then lane_foreign_fail ();
  if n = Array.length l.seqs then lane_grow l;
  let q = t.queue in
  let seq = q.Event_queue.next_seq in
  q.Event_queue.next_seq <- seq + 1;
  let i = (l.head + n) land (Array.length l.seqs - 1) in
  Array.unsafe_set l.times i at;
  Array.unsafe_set l.seqs i seq;
  l.len <- n + 1;
  t.lane_count <- t.lane_count + 1;
  if n = 0 then lane_started t l

(* Pop the earliest lane head and return its lane's action. Only when
   another lane still holds entries can a different head now be the
   earliest, and only then are the lanes rescanned, for the non-empty
   one with the earliest (time, seq) head; otherwise the popped lane
   stays the minimum while it holds any. The rescan is a loop, so it
   inlines into the run loop with the rest of the pop (a recursive
   helper would be a call per pop); [best] is a local [ref] that does
   not escape, which ocamlopt keeps in a register. *)
let[@inline] lane_pop t =
  let lanes = t.lanes in
  let l = Array.unsafe_get lanes t.lane_min in
  l.head <- (l.head + 1) land (Array.length l.seqs - 1);
  let n = l.len - 1 in
  l.len <- n;
  let c = t.lane_count - 1 in
  t.lane_count <- c;
  if c <> n then begin
    let best = ref (-1) in
    for i = 0 to Array.length lanes - 1 do
      let x = Array.unsafe_get lanes i in
      if x.len > 0 then
        if !best < 0 then best := i
        else begin
          let b = Array.unsafe_get lanes !best in
          let xt = Array.unsafe_get x.times x.head in
          let bt = Array.unsafe_get b.times b.head in
          if
            xt < bt
            || (xt = bt
                && Array.unsafe_get x.seqs x.head
                   < Array.unsafe_get b.seqs b.head)
          then best := i
        end
    done;
    t.lane_min <- !best
  end
  else if n = 0 then t.lane_min <- -1;
  l.fire

(* Returned by [settle] for an entry that fires nothing; compared by
   address, and never handed out. *)
let skip () = ()

(* Timer entry [seq] reached the front of the queue. It fires only if
   it is the timer's live entry and carries the current arm's ticket.
   A live entry of a later arm re-inserts itself at that arm's
   (deadline, ticket); orphans and entries of a disarmed timer are
   discarded. Nothing here touches [now] or the fired count. *)
let[@inline] settle t tm seq =
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

(* Earliest source by (time, seq): -3 = lane, -2 = wheel, 0 = heap,
   -1 = all empty. Returns a bare int (the caller recomputes the time
   by branch) so the hot loop allocates nothing; the wheel minimum is
   read through direct field loads because a cross-module
   float-returning call would box its result on every peek.

   With lane entries queued and level 0 empty, the wheel's cursor
   first follows them ({!Timing_wheel.follow_lanes}): a plain [ensure]
   would cascade the next occupied level-1 slot while lane entries due
   before it are still to fire, and the unit events they schedule in
   between would then fall behind the cursor onto the heap. *)
let[@inline] select_all t =
  let w = t.wheel in
  let q = t.queue in
  let m = t.lane_min in
  let on_wheel =
    if w.Timing_wheel.count0 > 0 then true
    else if m < 0 then w.Timing_wheel.count1 > 0
    else begin
      let l = Array.unsafe_get t.lanes m in
      Timing_wheel.follow_lanes w ~at:(Array.unsafe_get l.times l.head);
      w.Timing_wheel.count0 > 0
    end
  in
  let src =
    if not on_wheel then (if q.Event_queue.size = 0 then -1 else 0)
    else begin
      Timing_wheel.ensure w;
      if q.Event_queue.size = 0 then -2
      else begin
        let wt = Float.Array.unsafe_get w.Timing_wheel.fmin 0 in
        let ht = Array.unsafe_get q.Event_queue.times 0 in
        if
          wt < ht
          || (wt = ht
              && w.Timing_wheel.min_seq
                 < Array.unsafe_get q.Event_queue.seqs 0)
        then -2
        else 0
      end
    end
  in
  if m < 0 then src
  else if src = -1 then -3
  else begin
    let l = Array.unsafe_get t.lanes m in
    let lt = Array.unsafe_get l.times l.head in
    let ot =
      if src = -2 then Float.Array.unsafe_get w.Timing_wheel.fmin 0
      else Array.unsafe_get q.Event_queue.times 0
    in
    if lt < ot then -3
    else if lt > ot then src
    else begin
      let os =
        if src = -2 then w.Timing_wheel.min_seq
        else Array.unsafe_get q.Event_queue.seqs 0
      in
      if Array.unsafe_get l.seqs l.head < os then -3 else src
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
   CLI sets them from --sim-budget / --wall-budget. *)
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
    match sim_budget with Some b -> now t +. b | None -> infinity
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
           else if src = 0 then Array.unsafe_get t.queue.Event_queue.times 0
           else
             let l = Array.unsafe_get t.lanes t.lane_min in
             Array.unsafe_get l.times l.head
         in
         if time > sim_deadline then begin
           (* The clock stays at the last fired event: the engine (and the
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
           Float.Array.unsafe_set t.clock 0 until;
           reason := Horizon_reached;
           continue := false
         end
         else begin
           (* A lane entry or a unit event on the wheel fires straight
              from its ring or slot; a timer entry, on either the wheel
              or the heap, goes through [settle] and may fire nothing.
              The wheel's handle cell is read only under its flag
              (valid: select_all just ran [ensure]), so unit entries
              skip the handle load. *)
           let fire =
             if src = -3 then lane_pop t
             else if src = -2 then begin
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
             Float.Array.unsafe_set t.clock 0 time;
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
