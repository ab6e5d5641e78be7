(* Reference model of the engine's dispatch contract: every event on
   one binary heap, ordered by (time, scheduling order), with lazy
   cancellation — the scheduler the timing wheel replaced. Timers are
   eager here: a re-arm is a cancel plus a fresh schedule. The wheel
   tests run the same schedule programs through both and require
   identical dispatch logs. *)

module EQ = Ebrc.Event_queue

type handle = { mutable cancelled : bool }
type t = { queue : ((unit -> unit) * handle) EQ.t; mutable now : float }

let create () = { queue = EQ.create (); now = 0.0 }
let now t = t.now
let cancel h = h.cancelled <- true

let schedule t ~at fire =
  if not (at >= t.now) then invalid_arg "Heap_reference.schedule: past time";
  let h = { cancelled = false } in
  EQ.push t.queue ~time:at (fire, h);
  h

let schedule_unit t ~at fire = ignore (schedule t ~at fire : handle)

(* A re-armable timer modelled eagerly: each arm cancels the previous
   one-shot event and schedules a fresh one. *)
type timer = { action : unit -> unit; mutable pending : handle option }

let timer action = { action; pending = None }

let disarm tm =
  (match tm.pending with Some h -> cancel h | None -> ());
  tm.pending <- None

let arm t tm ~at =
  disarm tm;
  tm.pending <-
    Some
      (schedule t ~at (fun () ->
           tm.pending <- None;
           tm.action ()))

(* A lane modelled as what it stands for: every push a fresh unit
   event running the lane's action, behind the engine's two push
   checks (not in the past, not before the lane's last entry). *)
type lane = { fire : unit -> unit; mutable last : float }

let lane fire = { fire; last = neg_infinity }

let lane_push t l ~at =
  if not (at >= t.now && at >= l.last) then
    invalid_arg "Heap_reference.lane_push: out-of-order time";
  l.last <- at;
  schedule_unit t ~at l.fire

(* Tie-break tickets drawn so far: one per schedule, arm and lane
   push. *)
let tickets t = t.queue.EQ.next_seq

let schedule_after_unit t ~delay fire =
  if not (delay >= 0.0) then
    invalid_arg "Heap_reference.schedule_after_unit: negative delay";
  schedule_unit t ~at:(t.now +. delay) fire

(* Like [Engine.run ~until]: an entry due after [until] stays queued,
   and the clock moves to [until]. *)
let run ?(until = infinity) t =
  let rec loop () =
    match EQ.peek_time t.queue with
    | None -> ()
    | Some time when time > until -> t.now <- until
    | Some _ -> (
        match EQ.pop t.queue with
        | None -> ()
        | Some (time, (fire, h)) ->
            if not h.cancelled then begin
              t.now <- time;
              fire ()
            end;
            loop ())
  in
  loop ()
