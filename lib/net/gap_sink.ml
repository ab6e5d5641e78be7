(* The receiving end of a non-adaptive probe flow: takes the loss events
   a Poisson/CBR source experiences, the paper's p'', from sequence
   gaps. A gap closed later by a reordered packet still counts as a
   loss. *)

type t = {
  events : Loss_events.t;
  window : float;
  mutable expected : int;
  mutable received : int;
}

let create ~window =
  { events = Loss_events.create (); window; expected = 0; received = 0 }

let loss_events t = t.events
let received t = t.received

let on_packet t ~now (pkt : Packet.t) =
  if pkt.seq > t.expected then
    (* The missing packets were contiguous: (at most) one loss event.
       p'' counts every arrival, duplicates and late packets included,
       where TFRC's p counts in-order arrivals only. *)
    ignore
      (Loss_events.on_loss t.events ~now ~window:t.window ~count:t.received);
  if pkt.seq >= t.expected then t.expected <- pkt.seq + 1;
  t.received <- t.received + 1
