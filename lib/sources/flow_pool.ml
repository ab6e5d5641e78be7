(* Struct-of-arrays flow pool: the per-flow hot state of many cheap
   flows, laid out as flat columns instead of one heap record per flow.

   At 10^4..10^6 flows, per-flow records cost a pointer chase per field
   access and scatter the working set across the heap; columns keep
   each access pattern (all rates, all next-send times, ...) dense and
   prefetchable, and the float columns are unboxed floatarrays. The
   record is exposed [private] (precedent: Engine.t, Timing_wheel.t)
   so hot loops read and write columns directly — array contents are
   freely mutable through the fields; only the pool's own bookkeeping
   ([n]) is protected behind the API.

   Column ownership is by convention: a source that uses the pool
   decides which columns it maintains (Flock keeps [rate] as its tick
   gap, [next_send], [seq] as the per-flow sequence and [sent]). *)

type t = {
  cap : int;
  mutable n : int;
  rate : floatarray;       (* per-flow pacing value: pkt/s for senders,
                              tick gap (s) for Flock *)
  next_send : floatarray;  (* absolute next-send time, s *)
  seq : int array;         (* next sequence number *)
  sent : int array;        (* packets sent *)
}

let create ~capacity =
  if capacity < 1 then
    invalid_arg "Flow_pool.create: capacity must be >= 1";
  {
    cap = capacity;
    n = 0;
    rate = Float.Array.make capacity 0.0;
    next_send = Float.Array.make capacity 0.0;
    seq = Array.make capacity 0;
    sent = Array.make capacity 0;
  }

let length t = t.n

let add ?(rate = 0.0) ?(next_send = 0.0) t =
  if t.n >= t.cap then invalid_arg "Flow_pool.add: pool full";
  let i = t.n in
  t.n <- i + 1;
  Float.Array.set t.rate i rate;
  Float.Array.set t.next_send i next_send;
  i
