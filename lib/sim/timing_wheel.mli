(** Two-level hierarchical timing wheel for bounded-horizon events.

    The wheel owns events within a 16 s window of the cursor: level 0
    covers one 1/16 s span at 2^-16 s resolution, level 1 covers the
    remaining 255 spans at 1/16 s resolution, cascading one slot at a
    time into level 0 on demand. Push is O(1); minimum extraction is a
    bitmap scan plus one slot-list walk (a slot crowded past a small
    threshold is merge-sorted in place on first lookup and then drains
    at O(1) per pop), compared by exact (time, seq) so the dispatch
    order is the true global minimum — never a bucketed
    approximation. Events outside the window (far future, non-finite,
    or behind the cursor after a salvaged abort) are rejected by
    {!fits} and belong on the caller's overflow heap.

    Entries live in one growable arena of parallel arrays threaded into
    per-slot intrusive lists by [next]; a cascade relinks entries
    between levels without copying payloads, and a push into a fresh
    engine never reallocates per-slot storage.

    The wheel is generic in the handle type ['h] so the engine can
    store its own timers without a dependency cycle.

    The record type is exposed [private] so the engine's run loop can
    read the cached minimum as direct field loads: a cross-module call
    returning a [float] boxes its result unless it is inlined, and
    without flambda that happens only for small functions compiled
    without [-opaque]; the scheduler peeks the minimum several times per
    event, and that box was measurable across a whole scenario. Call
    {!ensure} first; after it returns (wheel non-empty),
    [min_time]/[min_seq]/[min_idx] are valid until the next
    {!drop_min}.

    Telemetry: [pushed], [rotations] (level-1 slots cascaded) and
    [overflowed] (events {!fits} rejected) are read through
    {!add_probes} as [wheel.pushed], [wheel.rotations] and
    [wheel.overflowed]. *)

type 'h t = private {
  null : 'h;
  mutable times : float array;
  mutable seqs : int array;
  mutable fires : (unit -> unit) array;
  mutable handles : 'h array;
  mutable flags : Bytes.t;
      (** ['\001'] iff the entry's [handles] cell is live; the handle
          array is written — and must be read — only under this flag,
          which spares a write barrier on unit-event entries. *)
  mutable next : int array;
  mutable free : int;
  head0 : int array;
  head1 : int array;
  occ0 : int array;
  occ1 : int array;
  abs1 : int array;
  mutable cur1 : int;
  mutable count0 : int;
  mutable count1 : int;
  mutable floor_w : int;
  mutable min_ok : bool;
  mutable min_slot : int;
  mutable min_idx : int;
  mutable min_prev : int;
      (** list predecessor of [min_idx], -1 when it is the slot head;
          maintained by pushes so {!drop_min} unlinks in O(1) *)
  fmin : floatarray;
      (** [0] = minimum time, valid after {!ensure} until {!drop_min}.
          A one-cell floatarray, not a mutable float field: the cache
          is republished per pop, and a float field in a mixed record
          is a boxed pointer (allocation + write barrier per store)
          where the floatarray cell is a plain unboxed write. *)
  mutable min_seq : int;  (** valid after {!ensure}, until {!drop_min} *)
  mutable sorted_slot : int;
      (** level-0 slot whose list is in ascending (time, seq) order
          (-1 = none): crowded slots are merge-sorted on first minimum
          lookup so draining them is O(1) per pop — see the cost model
          above *)
  sort_runs : int array;
      (** merge-sort scratch ladder; all -1 between operations *)
  mutable pushed : int;
  mutable rotations : int;
  mutable overflowed : int;
}

val min_time : 'h t -> float
(** [Float.Array.unsafe_get t.fmin 0]; for out-of-hot-path readers. *)

val create : null:'h -> unit -> 'h t
(** [null] is the filler stored in empty arena cells (it must be a
    value the caller never dereferences through). An entry pushed with
    the [null] handle is a unit event: its [flags] cell stays clear. *)

val add_probes : 'h t -> Ebrc_telemetry.Telemetry.Probe.set -> unit
(** Register the wheel's [wheel.*] counters in a probe set. *)

val count : 'h t -> int

val fits : 'h t -> now:float -> at:float -> bool
(** Whether an event at absolute time [at] lands inside the wheel
    window; on [false] the event belongs on the overflow heap, under the
    same ticket it would have taken here, which keeps the merged
    dispatch order bit-identical to a pure-heap run. May advance the
    cursor when the wheel is idle (re-anchoring at [now]). *)

val push : 'h t -> time:float -> seq:int -> (unit -> unit) -> 'h -> unit
(** Insert an event. Precondition: {!fits} just returned [true] for
    this [time]. [seq] is the ticket drawn from the heap's shared
    sequence counter — for a timer entry, the ticket of its arm. *)

val try_push :
  'h t -> 'a Event_queue.t -> now:float -> at:float -> (unit -> unit) ->
  bool
(** Fused {!fits} + ticket draw + {!push} of a unit event (handle
    [null]): one cross-module call on the schedule fast path. On [true]
    the event is on the wheel with a ticket from [q]'s sequence
    counter; on [false] {e no ticket was drawn} — the caller must draw
    the next counter value for its overflow entry, preserving global
    ticket order. *)

val anchor : 'h t -> now:float -> unit
(** Re-anchor the cursor at [now] if the wheel is empty, as {!fits}
    does. The engine calls it when a lane entry is pushed with the
    wheel and every lane empty, so that streams moved onto lanes leave
    the cursor where it would be with their entries on the wheel. *)

val follow_lanes : 'h t -> at:float -> unit
(** With level 0 empty ([count0 = 0]) and the engine's earliest lane
    entry at [at], move the cursor as {!ensure} would if the lane
    entries were on the wheel: no move while [at] is in the current
    level-1 span, else to the nearer of the first occupied level-1 slot
    (cascading it) and [at]'s own slot. Counts a rotation when it
    moves. Afterwards the wheel can hold the global minimum only if
    level 0 is non-empty. *)

val ensure : 'h t -> unit
(** Locate the (time, seq)-minimum pending entry and publish it in
    [min_time]/[min_seq]/[min_idx] (cached; a no-op when already
    located). The wheel must not be empty. Stale timer entries are
    still pending — like the heap, the wheel dispatches them for the
    caller to settle. *)

val drop_min : 'h t -> unit -> unit
(** Remove the minimum entry and return its fire thunk, invalidating
    the cached minimum. Implies {!ensure}; the wheel must not be
    empty. *)
