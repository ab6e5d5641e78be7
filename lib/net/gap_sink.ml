(* A measurement sink for non-adaptive probe flows: detects losses from
   sequence gaps (the simulated paths never reorder) and feeds a
   Flow_stats probe, giving the loss-event rate a Poisson/CBR source
   experiences — the paper's p''. *)

type t = {
  stats : Flow_stats.t;
  mutable expected : int;
}

let create ~rtt_hint = { stats = Flow_stats.create ~rtt_hint; expected = 0 }

let stats t = t.stats

let on_packet t ~now (pkt : Packet.t) =
  if pkt.seq > t.expected then
    (* The missing packets were dropped; they count as (at most) one
       loss-event here since they were contiguous. *)
    Flow_stats.on_loss t.stats ~now;
  if pkt.seq >= t.expected then t.expected <- pkt.seq + 1;
  Flow_stats.on_receive t.stats ~now ~bytes:pkt.size
