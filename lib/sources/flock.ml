(* A flock of very cheap periodic flows, built to put the scheduler —
   not the protocol stack — on the critical path. Packet-level TFRC
   flows carry too much per-event protocol work to expose scheduler
   costs at scale, so each flock member is the minimal credible flow:
   a periodic tick that bumps a sequence number, folds itself into a
   dispatch-order fingerprint, and reschedules.

   With 10^5 members the engine holds ~10^5 pending events at all
   times, which is exactly the regime where a binary heap pays ~17
   cache-missing sift levels per operation and the timing wheel pays
   O(1). Per-flow state lives in a struct-of-arrays Flow_pool (the
   tick gap in the [rate] column, the sequence number in [seq]) and
   every member's tick thunk is preallocated at setup, so the steady
   state allocates nothing — what the bench times is scheduling, not
   construction.

   The fingerprint folds (flow, seq) in dispatch order with plain
   wrapping-int mixing, so two engines agree on it iff they dispatched
   the same events in the same order — the scale-bench analogue of the
   scenario-level serialized-result comparison.

   [run_hybrid] extends the flock into the flows1m hybrid bench: the
   flock's ticks become real packets through a bottleneck Link whose
   queue carries a 10^5..10^6-flow fluid background aggregate
   (Ebrc_net.Fluid); deliveries and drops fold into the fingerprint,
   so the hybrid co-simulation's determinism is checkable the same
   way. *)

module Engine = Ebrc_sim.Engine
module Prng = Ebrc_rng.Prng
module Fluid = Ebrc_net.Fluid
module Link = Ebrc_net.Link
module Packet = Ebrc_net.Packet
module Queue_discipline = Ebrc_net.Queue_discipline

type t = {
  pool : Flow_pool.t;
  mutable events : int;
  mutable fingerprint : int;
}

type stats = { flows : int; events : int; fingerprint : int }

let fnv_prime = 0x100000001b3

let create ?(flows = 100_000) ?(seed = 1) engine =
  if flows <= 0 then invalid_arg "Flock.create: flows must be positive";
  let rng = Prng.create ~seed in
  let pool = Flow_pool.create ~capacity:flows in
  let gaps = pool.Flow_pool.rate and seqs = pool.Flow_pool.seq in
  let t = { pool; events = 0; fingerprint = 0 } in
  for _ = 0 to flows - 1 do
    (* Gaps in [0.8, 1.2) s: inside the wheel's 16 s horizon (the
       common case this bench targets) yet spread enough that slots
       stay lightly loaded. *)
    let gap = 0.8 +. (0.4 *. Prng.float_unit rng) in
    (* Staggered starts: uniform over the flow's own first period, so
       the initial burst doesn't land 10^5 events on one instant. *)
    let first = gap *. Prng.float_unit rng in
    let i = Flow_pool.add ~rate:gap ~next_send:first pool in
    let rec tick () =
      let seq = Array.unsafe_get seqs i + 1 in
      Array.unsafe_set seqs i seq;
      t.events <- t.events + 1;
      let fp = ((t.fingerprint * fnv_prime) + i) * fnv_prime + seq in
      t.fingerprint <- fp;
      Engine.schedule_after_unit engine
        ~delay:(Float.Array.unsafe_get gaps i) tick
    in
    Engine.schedule_unit engine ~at:first tick
  done;
  t

let pool (t : t) = t.pool

let run ?(flows = 100_000) ?(duration = 10.0) ?(seed = 1) () =
  let engine = Engine.create () in
  let t = create ~flows ~seed engine in
  (match Engine.run ~until:duration engine with
  | Engine.Horizon_reached | Engine.Queue_empty -> ()
  | Engine.Budget_exhausted | Engine.Stopped -> ());
  { flows = Flow_pool.length t.pool; events = t.events;
    fingerprint = t.fingerprint }

(* ----------------------- flows1m hybrid bench ---------------------- *)

type hybrid_stats = {
  fg_flows : int;
  bg_flows : int;
  events : int;           (* engine events dispatched *)
  sent : int;             (* foreground packets offered to the link *)
  delivered : int;
  dropped : int;
  fingerprint : int;      (* dispatch-order fold over send/deliver/drop *)
  fluid : Fluid.stats option;  (* None when [bg_flows = 0] *)
}

(* Foreground flows tick at ~1 pkt/s each through a bottleneck sized at
   2.5 x their aggregate mean rate; the fluid background
   aggregates [bg_flows] AIMD flows contending for the same queue. With
   [bg_flows = 0] no fluid is created and this is a packet-only link
   bench over the same event population. *)
let run_hybrid ?(fg_flows = 20_000) ?(bg_flows = 200_000)
    ?(duration = 10.0) ?(seed = 1) ?(base_rtt = 0.1) () =
  if fg_flows <= 0 then invalid_arg "Flock.run_hybrid: fg_flows";
  if bg_flows < 0 then invalid_arg "Flock.run_hybrid: bg_flows";
  let engine = Engine.create () in
  let rng = Prng.create ~seed in
  let pkt_size = 1000 in
  (* Mean tick gap is 1 s, so the foreground offers ~fg_flows pkt/s. *)
  let capacity_pps = 2.5 *. float_of_int fg_flows in
  let qmax = Float.max 64.0 (capacity_pps *. base_rtt) in
  let queue =
    Queue_discipline.create
      ~capacity:(int_of_float qmax)
      Queue_discipline.Drop_tail
  in
  let link =
    Link.create ~engine
      ~rate_bps:(capacity_pps *. float_of_int (8 * pkt_size))
      ~delay:(0.5 *. base_rtt) ~queue ~rng
  in
  let fluid =
    if bg_flows > 0 then begin
      let fl =
        Fluid.create
          (Fluid.default ~flows:bg_flows ~capacity_pps ~base_rtt
             ~qmax ())
      in
      Link.attach_fluid link fl;
      Engine.set_advance_hook engine
        (Some
           (fun now ->
             Fluid.set_pkt_occupancy fl (Queue_discipline.occupancy queue);
             Fluid.sync fl ~now));
      Some fl
    end
    else None
  in
  let pool = Flow_pool.create ~capacity:fg_flows in
  let gaps = pool.Flow_pool.rate
  and seqs = pool.Flow_pool.seq
  and sent_col = pool.Flow_pool.sent
  and next_send = pool.Flow_pool.next_send in
  let fp = ref 0 and sent = ref 0 and delivered = ref 0 and dropped = ref 0 in
  Link.set_deliver link (fun pkt ->
      delivered := !delivered + 1;
      fp :=
        ((!fp * fnv_prime) + pkt.Packet.flow) * fnv_prime + pkt.Packet.seq);
  Link.set_on_drop link (fun pkt ->
      dropped := !dropped + 1;
      (* Drops mix with the complemented sequence so a dropped and a
         delivered packet can never cancel to the same fold. *)
      fp :=
        ((!fp * fnv_prime) + pkt.Packet.flow) * fnv_prime
        + lnot pkt.Packet.seq);
  for _ = 0 to fg_flows - 1 do
    let gap = 0.8 +. (0.4 *. Prng.float_unit rng) in
    let first = gap *. Prng.float_unit rng in
    let i = Flow_pool.add ~rate:gap ~next_send:first pool in
    let rec tick () =
      let seq = Array.unsafe_get seqs i + 1 in
      Array.unsafe_set seqs i seq;
      Array.unsafe_set sent_col i (Array.unsafe_get sent_col i + 1);
      sent := !sent + 1;
      let now = engine.Engine.now in
      Link.send link
        (Packet.data ~flow:i ~seq ~size:pkt_size ~sent_at:now);
      let gap = Float.Array.unsafe_get gaps i in
      Float.Array.unsafe_set next_send i (now +. gap);
      Engine.schedule_after_unit engine ~delay:gap tick
    in
    Engine.schedule_unit engine ~at:first tick
  done;
  (match Engine.run ~until:duration engine with
  | Engine.Horizon_reached | Engine.Queue_empty -> ()
  | Engine.Budget_exhausted | Engine.Stopped -> ());
  Engine.set_advance_hook engine None;
  {
    fg_flows;
    bg_flows;
    events = engine.Engine.processed;
    sent = !sent;
    delivered = !delivered;
    dropped = !dropped;
    fingerprint = !fp;
    fluid = Option.map Fluid.stats fluid;
  }
