(* A simplex link: a queue discipline in front of a fixed-rate server,
   followed by a propagation delay. Packets are delivered to the
   downstream [deliver] callback; drops are announced to [on_drop] (used
   by measurement probes, never by protocols — protocols learn about
   losses end-to-end).

   One ring from admission to delivery: service is FIFO and the
   propagation delay is constant, so deliveries leave in admission
   order and every admitted packet can stay in a single growable FIFO
   ring until it is delivered. The ring reads, from its head: packets
   served and awaiting propagation ([n_served] of them), then the
   packet in service (while the server lane holds an entry), then the
   backlog. Service moves only the [n_served] boundary; delivery pops
   the head. The per-packet path therefore stores one pointer (the
   admission push), and allocates nothing.

   The link's events ride two engine lanes ({!Engine.lane}) instead of
   the timing wheel: the server lane holds the one pending service
   completion, and the propagation lane one delivery per packet in
   flight, in time order because the delay is constant. Each entry
   takes its ticket where a [schedule_unit] would, so the dispatch
   order is the one per-packet unit events would give. *)

module Engine = Ebrc_sim.Engine
module Tm = Ebrc_telemetry.Telemetry

(* Every ingress drop is its queue's Drop verdict, so [link.drops]
   reads the queue's own drop count. *)
let k_link_drops =
  Tm.Probe.counter ~help:"packets dropped at link ingress" "link.drops"

let k_link_delivered =
  Tm.Probe.counter ~help:"packets delivered downstream" "link.delivered"

(* Growable FIFO ring of packets. Capacity is always a power of two
   (64, doubled), so index wrap is a mask, not a division. A popped
   cell is not cleared: it keeps a stale packet pointer until the ring
   wraps round and reuses it (a store per pop would be a write barrier
   per packet), so the ring retains at most its capacity's worth of
   already-delivered packets. *)
type ring = {
  mutable buf : Packet.t array;
  mutable head : int;
  mutable len : int;
}

let ring_create () = { buf = Array.make 64 Packet.dummy; head = 0; len = 0 }

let ring_push r pkt =
  let cap = Array.length r.buf in
  if r.len = cap then begin
    let bigger = Array.make (2 * cap) Packet.dummy in
    for i = 0 to r.len - 1 do
      bigger.(i) <- r.buf.((r.head + i) land (cap - 1))
    done;
    r.buf <- bigger;
    r.head <- 0
  end;
  let cap = Array.length r.buf in
  r.buf.((r.head + r.len) land (cap - 1)) <- pkt;
  r.len <- r.len + 1

(* The packet [i] places behind the head. *)
let[@inline] ring_get r i =
  Array.unsafe_get r.buf ((r.head + i) land (Array.length r.buf - 1))

type t = {
  engine : Engine.t;
  rate_bps : float;               (* bits per second *)
  delay : float;                  (* propagation delay, seconds *)
  queue : Queue_discipline.t;
  rng : Ebrc_rng.Prng.t;
  needs_u : bool;                 (* discipline consumes the uniform? *)
  ring : ring;                    (* every admitted, undelivered packet *)
  mutable n_served : int;         (* ring prefix served, in propagation *)
  mutable server : Engine.lane;   (* the service completion, if busy *)
  mutable line : Engine.lane;     (* one delivery per served packet *)
  mutable deliver : Packet.t -> unit;
  mutable on_drop : Packet.t -> unit;
  mutable delivered : int;
  mutable bytes_delivered : int;
  mutable fluid : Fluid.t option;
      (* Hybrid coupling: when attached, foreground drops see the fluid
         backlog, service is scaled by the foreground share, and every
         arrival feeds the fluid's input-rate estimate. [None] (the
         default) leaves the packet path structurally untouched. *)
}

let transmission_time t pkt = float_of_int (Packet.bits pkt) /. t.rate_bps

(* Called with the server idle: start on the next queued packet, if
   any. *)
let start_service t =
  if t.ring.len > t.n_served then begin
    let pkt = ring_get t.ring t.n_served in
    let tx = float_of_int (8 * pkt.Packet.size) /. t.rate_bps in
    let tx =
      match t.fluid with
      | None -> tx
      | Some fl ->
          (* The fluid holds part of the capacity: the foreground is
             served at the share the background leaves behind,
             evaluated at service start (piecewise-constant per
             packet, like the queue's own service model). *)
          Fluid.set_pkt_occupancy fl (Queue_discipline.occupancy t.queue);
          Fluid.sync fl ~now:(Engine.now t.engine);
          tx /. Fluid.fg_share fl
    in
    Engine.lane_push t.engine t.server ~at:(Engine.now t.engine +. tx)
  end

let create ~engine ~rate_bps ~delay ~queue ~rng =
  if rate_bps <= 0.0 then invalid_arg "Link.create: rate must be positive";
  if delay < 0.0 then invalid_arg "Link.create: negative delay";
  let t =
    {
      engine;
      rate_bps;
      delay;
      queue;
      rng;
      needs_u = Queue_discipline.needs_random queue;
      ring = ring_create ();
      n_served = 0;
      server = Engine.lane ignore; (* until the lanes below close over [t] *)
      line = Engine.lane ignore;
      deliver = (fun _ -> ());
      on_drop = (fun _ -> ());
      delivered = 0;
      bytes_delivered = 0;
      fluid = None;
    }
  in
  let probes = engine.Engine.probes in
  Tm.Probe.add probes k_link_delivered (fun () -> t.delivered);
  Tm.Probe.add probes k_link_drops (fun () -> Queue_discipline.drops queue);
  Queue_discipline.add_probes queue probes;
  t.line <-
    Engine.lane (fun () ->
        (* The head is the oldest served packet: deliveries are FIFO. *)
        let r = t.ring in
        let pkt = Array.unsafe_get r.buf r.head in
        r.head <- (r.head + 1) land (Array.length r.buf - 1);
        r.len <- r.len - 1;
        t.n_served <- t.n_served - 1;
        t.deliver pkt);
  t.server <-
    Engine.lane (fun () ->
        Queue_discipline.departure t.queue ~now:(Engine.now t.engine);
        let pkt = ring_get t.ring t.n_served in
        t.n_served <- t.n_served + 1;
        t.delivered <- t.delivered + 1;
        t.bytes_delivered <- t.bytes_delivered + pkt.Packet.size;
        Engine.lane_push t.engine t.line ~at:(Engine.now t.engine +. t.delay);
        start_service t);
  t

let set_deliver t f = t.deliver <- f
let set_on_drop t f = t.on_drop <- f

let attach_fluid t fl =
  t.fluid <- Some fl;
  Fluid.add_probes fl t.engine.Engine.probes

let drop_pkt t ~now pkt =
  (* The per-flow attribution the counters cannot carry. *)
  if Atomic.get Tm.on then
    Tm.event "link.drop" ~time:now ~flow:pkt.Packet.flow
      ~value:(float_of_int pkt.Packet.seq);
  t.on_drop pkt

let send t pkt =
  let now = Engine.now t.engine in
  match t.fluid with
  | None -> (
      let u = if t.needs_u then Ebrc_rng.Prng.float_unit t.rng else 0.0 in
      match Queue_discipline.offer ~bytes:pkt.Packet.size t.queue ~now ~u with
      | Queue_discipline.Drop -> drop_pkt t ~now pkt
      | Queue_discipline.Enqueue ->
          ring_push t.ring pkt;
          if Engine.lane_is_empty t.server then start_service t)
  | Some fl -> (
      (* Hybrid ingress: bring the fluid up to date and let the drop
         decision see a queue inflated by the fluid backlog. Only
         {e admitted} packets feed the fluid's foreground-rate
         estimate — dropped packets consume no service, and counting
         them would let a foreground overshoot starve the fluid's
         drain term and wedge the queue at its cap. *)
      Fluid.set_pkt_occupancy fl (Queue_discipline.occupancy t.queue);
      Fluid.sync fl ~now;
      let u = if t.needs_u then Ebrc_rng.Prng.float_unit t.rng else 0.0 in
      match
        Queue_discipline.offer_fluid ~bytes:pkt.Packet.size t.queue ~now ~u
          ~extra:(Fluid.queue_pkts fl)
      with
      | Queue_discipline.Drop -> drop_pkt t ~now pkt
      | Queue_discipline.Enqueue ->
          Fluid.on_packet_arrival fl;
          ring_push t.ring pkt;
          if Engine.lane_is_empty t.server then start_service t)

let queue t = t.queue
let delivered t = t.delivered
let bytes_delivered t = t.bytes_delivered
let utilization t ~duration =
  if duration <= 0.0 then 0.0
  else 8.0 *. float_of_int t.bytes_delivered /. (t.rate_bps *. duration)
