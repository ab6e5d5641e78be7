(* The paper's loss-event rule, shared by the measurements of p (TFRC),
   p′ (TCP) and p″ (a probe): a loss indication that comes more than
   [window] after the start of the current loss event opens a new one;
   later indications within [window] join the current event. Opening an
   event closes the interval of packets counted since the previous
   event's start.

   The caller keeps its own packet counter and passes its running value
   at each loss indication, so the per-packet path never reaches this
   module. *)

module Floatbuf = Ebrc_stats.Floatbuf

type t = {
  mutable events : int;
  mutable started_at : float;   (* start of the current loss event *)
  mutable count_at_start : int; (* the caller's count at that start *)
  intervals : Floatbuf.t;       (* completed intervals, packets *)
}

let create () =
  {
    events = 0;
    started_at = neg_infinity;
    count_at_start = 0;
    intervals = Floatbuf.create ();
  }

let on_loss t ~now ~window ~count =
  if now -. t.started_at > window then begin
    if t.events > 0 then
      Floatbuf.add t.intervals (float_of_int (count - t.count_at_start));
    t.events <- t.events + 1;
    t.count_at_start <- count;
    t.started_at <- now;
    true
  end
  else false

let events t = t.events
let open_interval t ~count = count - t.count_at_start
let completed t = Floatbuf.length t.intervals

let intervals t ~since =
  Array.init (Floatbuf.length t.intervals - since) (fun i ->
      Floatbuf.get t.intervals (since + i))

(* Loss-event rate as the paper defines it, 1 / E[theta]: completed
   intervals divided by the packets in them, summed in log order. *)
let rate t ~since =
  let n = Floatbuf.length t.intervals - since in
  if n <= 0 then 0.0
  else begin
    let packets = ref 0.0 in
    for i = since to Floatbuf.length t.intervals - 1 do
      packets := !packets +. Floatbuf.get t.intervals i
    done;
    float_of_int n /. !packets
  end
