(* Two-level hierarchical timing wheel for bounded-horizon events.

   Geometry: level 0 has 4096 slots of width 2^-16 s (~15 us) and spans
   exactly one level-1 slot; level 1 has 256 slots of width 1/16 s, for
   a 16 s total horizon. Slot numbers are absolute — S0(T) = floor(T *
   65536), S1(T) = floor(T * 16) = S0(T) / 4096 — and both scale
   factors are powers of two, so the float multiply is exact and slot
   assignment never suffers rounding drift. Level 0 is deliberately
   finer than level 1's fan-out needs: at 10^5 pending events a
   cascaded level-1 slot still spreads to only a few entries per
   level-0 slot, keeping the per-pop walk short without sorting.

   [cur1] is the absolute level-1 slot currently covered by level 0:
   level 0 holds exactly the entries with S1(time) = cur1, level 1
   holds cur1 < S1(time) <= cur1 + 255. That window is narrower than
   the slot count, so each level-1 slot maps to at most one absolute
   slot number and no per-entry round counter is needed. Anything past
   the horizon — or behind the cursor, which can happen when a caller
   schedules after a Budget_exceeded salvage left the cursor ahead of
   [now] — is rejected by {!fits} and belongs on the overflow heap.

   Storage: one growable arena of parallel arrays (times / tie-break
   seqs / fire thunks / timer handles) threaded into per-slot
   intrusive singly-linked lists by the [next] array; free entries are
   chained through [next] as well. A push is a pool alloc plus a list
   prepend — no per-slot arrays to grow, blit, or reallocate per
   engine — and a cascade relinks entries between levels without
   copying a single payload. Handles are stored only for timer entries
   ([flags] gates the read), which spares the write barrier on the
   unit-event majority (pacing, feedback and reverse-path streams; a
   link's service and delivery streams ride engine lanes instead).

   Exactness: entries within one level-0 slot differ by < 2^-12 s but
   are compared by full (time, seq) when the minimum is extracted, so
   dispatch order is the exact global minimum, not a bucketed
   approximation — the property the engine's bit-identity contract
   rests on. Equal-time entries can never span two slots (a slot owns a
   half-open time interval), so the first occupied slot always contains
   the global minimum.

   Cost model: push is O(1); extracting a minimum is a bitmap scan
   (monotonic within a window, amortized by [floor_w]) plus an O(k)
   walk of one slot list, where k is the slot population (single
   digits in the scenario benches, ~4 at the 100k-flow bench — against
   the ~17 cache-missing sift levels a 100k-entry binary heap pays per
   pop). A one-entry slot — almost every level-0 slot in the dumbbell
   scenarios — skips the walk: its head is its minimum. A slot crowded
   past [sort_threshold] — same-time bursts, 10^6-scale backlogs — is
   merge-sorted in place on first lookup and then drains at O(1) per
   pop. A level-1 slot is cascaded into level 0 at most once per
   1/16 s of simulated time. *)

module Tm = Ebrc_telemetry.Telemetry

let k_pushed =
  Tm.Probe.counter ~help:"events accepted by the timing wheel" "wheel.pushed"

let k_rotations =
  Tm.Probe.counter ~help:"level-1 slots cascaded into level 0"
    "wheel.rotations"

let k_overflowed =
  Tm.Probe.counter
    ~help:"events outside the wheel window, routed to the overflow heap"
    "wheel.overflowed"

let n_slots = 256 (* level-1 slots *)
let slot_mask = n_slots - 1
let n0_slots = 4096 (* level-0 slots; 128 bitmap words *)
let slot_mask0 = n0_slots - 1
let l0_shift = 12 (* log2 (n0_slots): S1 = S0 asr l0_shift *)
let l0_scale = 65536.0 (* slots/second at level 0; 2^-16 s slot width *)
let l1_scale = 16.0 (* slots/second at level 1; 1/16 s slot width *)

let nop () = ()

type 'h t = {
  null : 'h;
  (* entry arena: parallel payload arrays plus intrusive [next] links;
     free entries are chained through [next] from [free]. *)
  mutable times : float array;
  mutable seqs : int array;
  mutable fires : (unit -> unit) array;
  mutable handles : 'h array;
  mutable flags : Bytes.t; (* '\001' iff the entry's handle is live *)
  mutable next : int array;
  mutable free : int;
  (* per-slot list heads (-1 = empty) and 256-bit occupancy bitmaps
     packed 32 slots per int word. *)
  head0 : int array;
  head1 : int array;
  occ0 : int array;
  occ1 : int array;
  abs1 : int array; (* absolute S1 per occupied level-1 slot *)
  mutable cur1 : int;
  mutable count0 : int;
  mutable count1 : int;
  (* Lowest level-0 bitmap word that can be occupied: pops sweep
     forward monotonically, so the per-pop scan starts here instead of
     at word 0; a push below the hint lowers it. *)
  mutable floor_w : int;
  (* Cached minimum — always a level-0 entry (level-0 times are
     strictly below every level-1 time, since S1 partitions time into
     half-open intervals). Invalidated by {!drop_min}, upgraded in
     place by a smaller push, recomputed lazily. The time lives in a
     one-cell floatarray: it is republished on every pop, and a
     mutable float field in this mixed record would be a boxed
     pointer, costing an allocation plus a write barrier per store. *)
  mutable min_ok : bool;
  mutable min_slot : int;
  mutable min_idx : int;
  mutable min_prev : int;
      (* predecessor of [min_idx] in its slot list, -1 if it is the
         head — lets {!drop_min} unlink without re-walking the list *)
  fmin : floatarray; (* [0] = cached minimum time *)
  mutable min_seq : int;
  (* Level-0 slot whose list is in ascending (time, seq) order, -1 if
     none. A crowded slot is merge-sorted the first time the minimum
     is located in it, so draining it costs O(1) per pop instead of a
     fresh O(k) walk each — without this, a slot holding k entries
     costs O(k^2) to drain, which dominated at 10^5 pending events
     (~60 entries per slot). Pushes that would break the order clear
     the mark; a new-minimum prepend and a push into an empty slot
     preserve it. *)
  mutable sorted_slot : int;
  sort_runs : int array;
      (* scratch for the carry-propagation merge sort: [sort_runs.(i)]
         holds a sorted run of 2^i entries, -1 when empty; always all
         -1 between calls *)
  mutable pushed : int;
  mutable rotations : int;
  mutable overflowed : int;
}

let min_time t = Float.Array.unsafe_get t.fmin 0

(* Chain [lo..hi-1] through [next] as free-list segments ending in the
   previous free head. *)
let chain_free next lo hi tail =
  for i = lo to hi - 2 do
    next.(i) <- i + 1
  done;
  next.(hi - 1) <- tail

let initial_cap = 256

let create ~null () =
  let next = Array.make initial_cap 0 in
  chain_free next 0 initial_cap (-1);
  {
    null;
    times = Array.make initial_cap 0.0;
    seqs = Array.make initial_cap 0;
    fires = Array.make initial_cap nop;
    handles = Array.make initial_cap null;
    flags = Bytes.make initial_cap '\000';
    next;
    free = 0;
    head0 = Array.make n0_slots (-1);
    head1 = Array.make n_slots (-1);
    occ0 = Array.make 128 0;
    occ1 = Array.make 8 0;
    abs1 = Array.make n_slots 0;
    cur1 = 0;
    count0 = 0;
    count1 = 0;
    floor_w = 0;
    min_ok = false;
    min_slot = 0;
    min_idx = 0;
    min_prev = -1;
    fmin = Float.Array.make 1 0.0;
    min_seq = 0;
    sorted_slot = -1;
    sort_runs = Array.make 48 (-1);
    pushed = 0;
    rotations = 0;
    overflowed = 0;
  }

let add_probes t set =
  Tm.Probe.add set k_pushed (fun () -> t.pushed);
  Tm.Probe.add set k_rotations (fun () -> t.rotations);
  Tm.Probe.add set k_overflowed (fun () -> t.overflowed)

let count t = t.count0 + t.count1

let grow t =
  let cap = Array.length t.times in
  let ncap = 2 * cap in
  let times = Array.make ncap 0.0 in
  let seqs = Array.make ncap 0 in
  let fires = Array.make ncap nop in
  let handles = Array.make ncap t.null in
  let flags = Bytes.make ncap '\000' in
  let next = Array.make ncap 0 in
  Array.blit t.times 0 times 0 cap;
  Array.blit t.seqs 0 seqs 0 cap;
  Array.blit t.fires 0 fires 0 cap;
  Array.blit t.handles 0 handles 0 cap;
  Bytes.blit t.flags 0 flags 0 cap;
  Array.blit t.next 0 next 0 cap;
  chain_free next cap ncap t.free;
  t.times <- times;
  t.seqs <- seqs;
  t.fires <- fires;
  t.handles <- handles;
  t.flags <- flags;
  t.next <- next;
  t.free <- cap

(* ------------------------- occupancy bitmap ------------------------- *)

(* 32 slots per word (OCaml ints carry 63 usable bits, so 64-per-word
   would lose the top slot of every word to shift overflow). *)

let[@inline] occ_set occ i =
  let w = i lsr 5 in
  Array.unsafe_set occ w (Array.unsafe_get occ w lor (1 lsl (i land 31)))

let[@inline] occ_clear occ i =
  let w = i lsr 5 in
  Array.unsafe_set occ w
    (Array.unsafe_get occ w land lnot (1 lsl (i land 31)))

(* Count trailing zeros of a 32-bit-confined word by de Bruijn multiply
   — no refs (a local [ref] is a minor-heap cell, and this runs once
   per extracted event). *)
let debruijn32 = 0x077CB531

let ctz_table =
  let tbl = Array.make 32 0 in
  for i = 0 to 31 do
    tbl.(((debruijn32 lsl i) land 0xFFFFFFFF) lsr 27) <- i
  done;
  tbl

let[@inline] ctz w =
  Array.unsafe_get ctz_table ((((w land -w) * debruijn32) land 0xFFFFFFFF) lsr 27)

(* First occupied slot in linear order; -1 if none. Level 0 only ever
   holds S1 = cur1, and cur1 * 256 is 0 mod 256, so relative slot order
   equals absolute time order and the scan starts at slot 0. All scan
   helpers are top-level and tail-recursive: a [let rec] with captured
   variables is a closure allocation per call. *)
let rec occ_scan occ wi =
  if wi = 128 then -1
  else
    let w = Array.unsafe_get occ wi in
    if w <> 0 then (wi lsl 5) + ctz w else occ_scan occ (wi + 1)

(* First occupied slot in cyclic order from [start]; -1 if none. Used
   on level 1, where cyclic distance from (cur1 + 1) equals absolute
   S1 order. *)
let rec occ_scan_wrap occ wi low_mask k =
  if k > 8 then -1
  else
    let wj = (wi + k) land 7 in
    let w = if k = 8 then occ.(wj) land low_mask else occ.(wj) in
    if w <> 0 then (wj lsl 5) + ctz w else occ_scan_wrap occ wi low_mask (k + 1)

let first_occ_from occ start =
  let wi = start lsr 5 in
  let low_mask = (1 lsl (start land 31)) - 1 in
  let head = occ.(wi) land lnot low_mask in
  if head <> 0 then (wi lsl 5) + ctz head
  else occ_scan_wrap occ wi low_mask 1

(* ------------------------------ push ------------------------------- *)

(* Re-anchor an idle wheel at [now], so long gaps with nothing on the
   wheel don't strand the cursor in the past. *)
let[@inline] anchor t ~now =
  if t.count0 = 0 && t.count1 = 0 then begin
    let s1n = int_of_float (now *. l1_scale) in
    if s1n > t.cur1 then t.cur1 <- s1n
  end

let[@inline] fits t ~now ~at =
  if not (Float.is_finite at) then begin
    t.overflowed <- t.overflowed + 1;
    false
  end
  else begin
    anchor t ~now;
    let s1 = int_of_float (at *. l1_scale) in
    let ok = s1 >= t.cur1 && s1 - t.cur1 < n_slots in
    if not ok then t.overflowed <- t.overflowed + 1;
    ok
  end

(* Prepend arena entry [idx], already written, to its slot list.
   [s0] = floor(time * 65536); the caller has already established that
   S1(time) is inside the window. The entry's time and seq are read
   back from the arena, so this out-of-line half takes no float
   argument (a float passed to a call is boxed). *)
let link_entry t s0 idx =
  let time = Array.unsafe_get t.times idx in
  let seq = Array.unsafe_get t.seqs idx in
  let s1 = s0 asr l0_shift in
  if s1 = t.cur1 then begin
    let rel = s0 land slot_mask0 in
    let head = Array.unsafe_get t.head0 rel in
    if head < 0 then occ_set t.occ0 rel;
    Array.unsafe_set t.next idx head;
    Array.unsafe_set t.head0 rel idx;
    t.count0 <- t.count0 + 1;
    if rel lsr 5 < t.floor_w then t.floor_w <- rel lsr 5;
    (* A sorted slot survives two kinds of push: a prepend to an empty
       list (trivially sorted) and a new-global-minimum prepend (the
       new head is below everything behind it). Any other prepend into
       it leaves an out-of-order head, so the mark is dropped and the
       next {!ensure} re-walks (and possibly re-sorts) the slot. *)
    (if t.min_ok then
       let mt = Float.Array.unsafe_get t.fmin 0 in
       if time < mt || (time = mt && seq < t.min_seq) then begin
         t.min_slot <- rel;
         t.min_idx <- idx;
         t.min_prev <- -1; (* just prepended: it is the head *)
         Float.Array.unsafe_set t.fmin 0 time;
         t.min_seq <- seq
       end
       else begin
         if rel = t.min_slot && t.min_prev < 0 then
           (* The cached minimum was this slot's head; the new entry
              was just prepended in front of it. *)
           t.min_prev <- idx;
         if rel = t.sorted_slot && head >= 0 then t.sorted_slot <- -1
       end
     else if rel = t.sorted_slot && head >= 0 then t.sorted_slot <- -1)
  end
  else begin
    let rel = s1 land slot_mask in
    let head = Array.unsafe_get t.head1 rel in
    if head < 0 then occ_set t.occ1 rel;
    Array.unsafe_set t.next idx head;
    Array.unsafe_set t.head1 rel idx;
    Array.unsafe_set t.abs1 rel s1;
    t.count1 <- t.count1 + 1
  end;
  t.pushed <- t.pushed + 1

(* Write one entry into the arena and link it into its slot. Inlined
   into every push site, so the caller's time reaches the arena
   unboxed. Stores into [times]/[seqs]/[next] are barrier-free
   (unboxed arrays); only the fire thunk — and the handle, when one
   exists — pays caml_modify. *)
let[@inline] insert_entry t s0 time seq fire handle is_timer =
  (if t.free < 0 then grow t);
  let idx = t.free in
  t.free <- Array.unsafe_get t.next idx;
  Array.unsafe_set t.times idx time;
  Array.unsafe_set t.seqs idx seq;
  Array.unsafe_set t.fires idx fire;
  Bytes.unsafe_set t.flags idx (if is_timer then '\001' else '\000');
  if is_timer then Array.unsafe_set t.handles idx handle;
  link_entry t s0 idx

(* Precondition: {!fits} just returned [true] for this time (and no
   push or pop intervened). [seq] is the caller's tie-break ticket,
   drawn from the same counter as heap pushes. *)
let[@inline] push t ~time ~seq fire handle =
  insert_entry t
    (int_of_float (time *. l0_scale))
    time seq fire handle
    (handle != t.null)

(* Fused fits + ticket + push of a unit event: one cross-module call —
   and one float-to-int conversion — on the schedule fast path. Returns
   [false] (drawing no ticket) when the event must go to the overflow
   heap — where the caller then draws the same counter value,
   preserving ticket order. *)
let[@inline] try_push t q ~now ~at fire =
  if not (Float.is_finite at) then begin
    t.overflowed <- t.overflowed + 1;
    false
  end
  else begin
    anchor t ~now;
    let s0 = int_of_float (at *. l0_scale) in
    let s1 = s0 asr l0_shift in
    if s1 >= t.cur1 && s1 - t.cur1 < n_slots then begin
      (* The heap's own ticket counter, drawn inline to spare a call. *)
      let seq = q.Event_queue.next_seq in
      q.Event_queue.next_seq <- seq + 1;
      insert_entry t s0 at seq fire t.null false;
      true
    end
    else begin
      t.overflowed <- t.overflowed + 1;
      false
    end
  end

(* ------------------------- minimum extraction ----------------------- *)

(* Relink one level-1 slot list into level 0. Entries move by pointer
   surgery only — no payload is copied. *)
let rec relink_l0 t times next i n =
  if i < 0 then n
  else begin
    let nx = Array.unsafe_get next i in
    let rel0 =
      int_of_float (Array.unsafe_get times i *. l0_scale) land slot_mask0
    in
    let head = Array.unsafe_get t.head0 rel0 in
    if head < 0 then occ_set t.occ0 rel0;
    Array.unsafe_set next i head;
    Array.unsafe_set t.head0 rel0 i;
    relink_l0 t times next nx (n + 1)
  end

(* Move one level-1 slot down into level 0 and advance the cursor to
   it. Level 0 is empty when this is called, and every intermediate
   level-1 slot is empty too (the cascaded slot is the cyclically first
   occupied one), so no pending entry is skipped. *)
let cascade t s1abs =
  let rel1 = s1abs land slot_mask in
  t.cur1 <- s1abs;
  let n = relink_l0 t t.times t.next t.head1.(rel1) 0 in
  t.head1.(rel1) <- -1;
  occ_clear t.occ1 rel1;
  t.count1 <- t.count1 - n;
  t.count0 <- t.count0 + n;
  t.floor_w <- 0;
  t.sorted_slot <- -1; (* level 0 now holds a fresh window's entries *)
  t.rotations <- t.rotations + 1

(* The cursor moves of {!ensure} with level 0 empty, as if the
   engine's lane entries — the earliest at [at] — were on the wheel:
   none while [at] lies in level 0's span; otherwise to the nearer of
   the first occupied level-1 slot (a cascade) and [at]'s slot (nothing
   to move down, so level 0 stays empty). Either counts one rotation,
   as the cascade of a slot holding those entries did. A finite [at]
   is taken to be inside the horizon. *)
let[@inline] follow_lanes t ~at =
  if Float.is_finite at then begin
    let ls = int_of_float (at *. l1_scale) in
    if ls > t.cur1 then begin
      let s =
        if t.count1 = 0 then max_int
        else t.abs1.(first_occ_from t.occ1 ((t.cur1 + 1) land slot_mask))
      in
      if s <= ls then cascade t s
      else begin
        t.cur1 <- ls;
        t.floor_w <- 0;
        t.sorted_slot <- -1;
        t.rotations <- t.rotations + 1
      end
    end
  end

(* (time, seq)-minimum of one slot list, published into the min cache
   together with its list predecessor (so {!drop_min} unlinks in O(1)
   instead of re-walking the slot). The running best stays an index
   into the arena — float parameters (or a [for] loop's [ref] cells)
   would box a float per improvement; re-reading [times.(bi)] keeps
   every comparison on unboxed loads. Top-level and tail-recursive: a
   [let rec] with captured variables is a closure allocation per call.
   [p] is the predecessor of [i]; [bp] of [bi]. *)
let rec list_min t (times : float array) (seqs : int array) next i p bi bp =
  if i < 0 then begin
    t.min_idx <- bi;
    t.min_prev <- bp
  end
  else begin
    let ti = Array.unsafe_get times i in
    let bt = Array.unsafe_get times bi in
    if
      ti < bt
      || (ti = bt && Array.unsafe_get seqs i < Array.unsafe_get seqs bi)
    then list_min t times seqs next (Array.unsafe_get next i) i i p
    else list_min t times seqs next (Array.unsafe_get next i) i bi bp
  end

(* --------------------------- slot sorting --------------------------- *)

(* A slot list longer than this is merge-sorted in place the first
   time the minimum is located in it, so draining it is O(1) per pop
   instead of a fresh O(k) walk each. Shorter lists keep the walk: the
   sort machinery costs more than it saves, and scenario-bench slots
   hold single digits. *)
let sort_threshold = 12

(* Does list [i] have at least [k] more entries? Touches only [next],
   so the pre-sort length probe is cheaper than a full min walk. *)
let rec len_ge next i k =
  k = 0 || (i >= 0 && len_ge next (Array.unsafe_get next i) (k - 1))

(* Append the merge of sorted lists [a] and [b] after [tail]. All the
   sort helpers are top-level and tail-recursive for the same reason as
   {!list_min}: no closure, no boxed floats, no stack growth on a
   burst slot holding thousands of same-time entries. *)
let rec merge_into (times : float array) (seqs : int array) next tail a b =
  if a < 0 then Array.unsafe_set next tail b
  else if b < 0 then Array.unsafe_set next tail a
  else
    let ta = Array.unsafe_get times a and tb = Array.unsafe_get times b in
    if ta < tb || (ta = tb && Array.unsafe_get seqs a <= Array.unsafe_get seqs b)
    then begin
      Array.unsafe_set next tail a;
      merge_into times seqs next a (Array.unsafe_get next a) b
    end
    else begin
      Array.unsafe_set next tail b;
      merge_into times seqs next b a (Array.unsafe_get next b)
    end

(* Merge two sorted lists, returning the head of the result. *)
let merge (times : float array) (seqs : int array) next a b =
  if a < 0 then b
  else if b < 0 then a
  else
    let ta = Array.unsafe_get times a and tb = Array.unsafe_get times b in
    if ta < tb || (ta = tb && Array.unsafe_get seqs a <= Array.unsafe_get seqs b)
    then begin
      merge_into times seqs next a (Array.unsafe_get next a) b;
      a
    end
    else begin
      merge_into times seqs next b a (Array.unsafe_get next b);
      b
    end

(* Carry a sorted run of 2^i entries into the scratch ladder, merging
   with the resident run at each occupied rung — binary-counter
   increment, giving O(k log k) total work over a k-entry slot. *)
let rec carry_run times seqs next runs r i =
  let resident = Array.unsafe_get runs i in
  if resident < 0 then Array.unsafe_set runs i r
  else begin
    Array.unsafe_set runs i (-1);
    carry_run times seqs next runs (merge times seqs next resident r) (i + 1)
  end

let rec feed_runs times seqs next runs i =
  if i >= 0 then begin
    let nx = Array.unsafe_get next i in
    Array.unsafe_set next i (-1);
    carry_run times seqs next runs i 0;
    feed_runs times seqs next runs nx
  end

let rec fold_runs times seqs next runs i acc =
  if i = 48 then acc
  else begin
    let r = Array.unsafe_get runs i in
    if r < 0 then fold_runs times seqs next runs (i + 1) acc
    else begin
      Array.unsafe_set runs i (-1);
      fold_runs times seqs next runs (i + 1) (merge times seqs next acc r)
    end
  end

(* Sort slot list [h] into ascending (time, seq) order, returning the
   new head. (time, seq) is a total order — seqs are unique — so the
   sorted list, and therefore dispatch order, is independent of the
   input permutation: bit identity is untouched. Leaves [sort_runs]
   all -1. *)
let sort_list t h =
  feed_runs t.times t.seqs t.next t.sort_runs h;
  fold_runs t.times t.seqs t.next t.sort_runs 0 (-1)

(* Locate the (time, seq)-minimum entry. Precondition: not empty. *)
let[@inline] ensure t =
  if not t.min_ok then begin
    if t.count0 = 0 then begin
      let rel1 = first_occ_from t.occ1 ((t.cur1 + 1) land slot_mask) in
      cascade t t.abs1.(rel1)
    end;
    let rel = occ_scan t.occ0 t.floor_w in
    t.floor_w <- rel lsr 5;
    let h = t.head0.(rel) in
    (if Array.unsafe_get t.next h < 0 || rel = t.sorted_slot then begin
       (* A single-entry slot is its own minimum; a slot still in
          ascending order has its minimum at the head. *)
       t.min_idx <- h;
       t.min_prev <- -1
     end
     else if len_ge t.next h sort_threshold then begin
       let sh = sort_list t h in
       t.head0.(rel) <- sh;
       t.sorted_slot <- rel;
       t.min_idx <- sh;
       t.min_prev <- -1
     end
     else list_min t t.times t.seqs t.next t.next.(h) h h (-1));
    let bi = t.min_idx in
    t.min_slot <- rel;
    Float.Array.unsafe_set t.fmin 0 t.times.(bi);
    t.min_seq <- t.seqs.(bi);
    t.min_ok <- true
  end

(* Remove the minimum entry and return its fire thunk. Precondition:
   not empty.

   The freed arena cell keeps its stale fire/handle pointers — clearing
   them would cost a write barrier each, and they are unreachable
   through the wheel's API. The retention this causes ends at the next
   push that reuses the cell, or with the engine (one wheel per engine,
   one engine per simulation). *)
let[@inline] drop_min t =
  ensure t;
  let rel = t.min_slot in
  let idx = t.min_idx in
  let prev = t.min_prev in
  let next = t.next in
  let fire = t.fires.(idx) in
  if prev < 0 then begin
    (* [min_prev] is maintained by pushes into this slot, so the cached
       head-ness is still exact: -1 means [idx] is the head now. *)
    let nx = Array.unsafe_get next idx in
    Array.unsafe_set t.head0 rel nx;
    if nx < 0 then occ_clear t.occ0 rel
  end
  else Array.unsafe_set next prev (Array.unsafe_get next idx);
  next.(idx) <- t.free;
  t.free <- idx;
  t.count0 <- t.count0 - 1;
  t.min_ok <- false;
  fire
