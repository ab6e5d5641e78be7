(* Simulated packets. Sizes are in bytes; sequence numbers are per-flow.

   [kind] distinguishes data from acknowledgments and from protocol
   feedback so that queues and measurement probes can treat them
   appropriately (ACKs travel on the reverse path and are never dropped
   by the forward bottleneck in our topologies).

   Float storage: [sent_at] lives in a one-cell flat float array
   rather than a record field. In a mixed int/float record a float
   field is a separately boxed value; the [ [| sent_at |] ] cell is
   the same one allocation, but its float is stored unboxed. *)

type kind =
  | Data
  | Ack of { acked : int; dup : bool }
  | Feedback of {
      p_estimate : float;        (* receiver's loss-event rate estimate *)
      recv_rate : float;         (* receiver's measured receive rate, pkt/s *)
      rtt_echo : float;          (* sender timestamp being echoed *)
      hold : float;              (* time the echo spent held at the
                                    receiver before this report *)
    }

type t = {
  flow : int;                    (* flow identifier *)
  seq : int;                     (* per-flow sequence number *)
  size : int;                    (* bytes *)
  kind : kind;
  f : float array;               (* [0] = origination time (RTT samples) *)
}

let sent_at t = Array.unsafe_get t.f 0

(* [ [| sent_at |] ] is an inline minor-heap allocation;
   [Float.Array.create] would be a C call per packet. *)
let[@inline] make ~flow ~seq ~size ~kind ~sent_at =
  { flow; seq; size; kind; f = [| sent_at |] }

let dummy = make ~flow:(-1) ~seq:(-1) ~size:1 ~kind:Data ~sent_at:0.0

let copy pkt =
  { flow = pkt.flow; seq = pkt.seq; size = pkt.size; kind = pkt.kind;
    f = [| Array.unsafe_get pkt.f 0 |] }

let[@inline] data ~flow ~seq ~size ~sent_at =
  if size <= 0 then invalid_arg "Packet.data: size must be positive";
  make ~flow ~seq ~size ~kind:Data ~sent_at

let ack ~flow ~seq ~acked ~dup ~sent_at =
  make ~flow ~seq ~size:40 ~kind:(Ack { acked; dup }) ~sent_at

let[@inline] feedback ~flow ~seq ~p_estimate ~recv_rate ~rtt_echo ~hold
    ~sent_at =
  make ~flow ~seq ~size:40
    ~kind:(Feedback { p_estimate; recv_rate; rtt_echo; hold })
    ~sent_at

let is_data t = match t.kind with Data -> true | Ack _ | Feedback _ -> false

let bits t = 8 * t.size
