(* Binary min-heap of timestamped events with stable FIFO tie-breaking.

   This heap serves overflow/far-future duty: the engine routes
   bounded-horizon events onto a hierarchical timing wheel and only
   events past the wheel window land here. The sequence counter below
   remains the single source of tie-break tickets for both — the wheel
   draws from it inline — which is what keeps their merged dispatch
   order identical to a pure-heap run.

   Ties matter: a packet arrival and a timer expiring at the same instant
   must be processed in schedule order for the simulation to be
   deterministic across runs. We break ties with a monotonically
   increasing sequence number.

   Hot-path layout: the heap is three parallel arrays (a flat float
   array of times, an int array of sequence numbers, and the payloads).
   Sifting is hole-based — the moving element rides in registers while
   ancestors/descendants slide into the hole, one write per level
   instead of the three-array triple-store a swap costs, and the moving
   element is written exactly once at its final slot.

   Payloads are stored unboxed as [Obj.t] (no [option] wrapper): a push
   allocates nothing beyond amortized array growth. The [Obj] use is
   confined to this module and is safe because the array's static type
   is [Obj.t array] — never a float array — so the compiler always uses
   generic (boxed) array accesses; empty slots hold [hole] (the unit
   value) purely so popped payloads don't leak. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : Obj.t array;
  mutable size : int;
  mutable next_seq : int;
}

let hole = Obj.repr ()

let create () =
  {
    times = Array.make 64 0.0;
    seqs = Array.make 64 0;
    payloads = Array.make 64 hole;
    size = 0;
    next_seq = 0;
  }

let size t = t.size
let is_empty t = t.size = 0

let grow t =
  let n = Array.length t.times in
  let times = Array.make (2 * n) 0.0 in
  let seqs = Array.make (2 * n) 0 in
  let payloads = Array.make (2 * n) hole in
  Array.blit t.times 0 times 0 n;
  Array.blit t.seqs 0 seqs 0 n;
  Array.blit t.payloads 0 payloads 0 n;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

(* Move the hole at [i] rootward until (time, seq) fits, then place the
   carried element. *)
let sift_up t i time seq payload =
  let i = ref i in
  let placed = ref false in
  while (not !placed) && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = t.times.(parent) in
    if time < pt || (time = pt && seq < t.seqs.(parent)) then begin
      t.times.(!i) <- pt;
      t.seqs.(!i) <- t.seqs.(parent);
      t.payloads.(!i) <- t.payloads.(parent);
      i := parent
    end
    else placed := true
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.payloads.(!i) <- payload

(* Move the hole at [i] leafward, pulling the smaller child up, until
   (time, seq) fits. *)
let sift_down t i time seq payload =
  let n = t.size in
  let i = ref i in
  let placed = ref false in
  while not !placed do
    let l = (2 * !i) + 1 in
    if l >= n then placed := true
    else begin
      let r = l + 1 in
      let c =
        if
          r < n
          && (t.times.(r) < t.times.(l)
             || (t.times.(r) = t.times.(l) && t.seqs.(r) < t.seqs.(l)))
        then r
        else l
      in
      let ct = t.times.(c) in
      if ct < time || (ct = time && t.seqs.(c) < seq) then begin
        t.times.(!i) <- ct;
        t.seqs.(!i) <- t.seqs.(c);
        t.payloads.(!i) <- t.payloads.(c);
        i := c
      end
      else placed := true
    end
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.payloads.(!i) <- payload

(* Insert under a ticket the caller drew from [next_seq] earlier: a
   deferred timer entry keeps the ticket of its arm. *)
let push_seq t ~time ~seq payload =
  if Float.is_nan time then invalid_arg "Event_queue.push: NaN time";
  if t.size = Array.length t.times then grow t;
  let i = t.size in
  t.size <- i + 1;
  sift_up t i time seq (Obj.repr payload)

let push t ~time payload =
  let seq = t.next_seq in
  push_seq t ~time ~seq payload;
  t.next_seq <- seq + 1

let peek_time t = if t.size = 0 then None else Some t.times.(0)

let pop_exn t =
  if t.size = 0 then invalid_arg "Event_queue.pop_exn: empty queue";
  let payload : 'a = Obj.obj t.payloads.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let lt = t.times.(n) and ls = t.seqs.(n) and lp = t.payloads.(n) in
    t.payloads.(n) <- hole;
    sift_down t 0 lt ls lp
  end
  else t.payloads.(0) <- hole;
  payload

let pop t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) in
    let payload : 'a = Obj.obj t.payloads.(0) in
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      let lt = t.times.(n) and ls = t.seqs.(n) and lp = t.payloads.(n) in
      t.payloads.(n) <- hole;
      sift_down t 0 lt ls lp
    end
    else t.payloads.(0) <- hole;
    Some (time, payload)
  end

let clear t =
  (* Only the live prefix can hold payload pointers — dropping just
     those is O(size), not O(capacity). Resetting the tie-break counter
     makes a cleared queue replay an identical push sequence with an
     identical pop order. *)
  Array.fill t.payloads 0 t.size hole;
  t.size <- 0;
  t.next_seq <- 0
