(* Non-adaptive probe sources: constant bit rate and Poisson. The paper
   uses Poisson probes to measure the "network" loss-event rate p''
   (Claim 3 / Figure 7): a non-adaptive source samples the congestion
   process uniformly in time. *)

module Engine = Ebrc_sim.Engine
module Packet = Ebrc_net.Packet
module Prng = Ebrc_rng.Prng
module Dist = Ebrc_rng.Dist

type pacing = Cbr | Poisson of Prng.t

type t = {
  engine : Engine.t;
  flow : int;
  packet_size : int;
  rate : float;              (* pkt/s *)
  pacing : pacing;
  mutable transmit : Packet.t -> unit;
  mutable seq : int;
  mutable sent : int;
  mutable running : bool;
}

let create ?(packet_size = 1000) ~engine ~flow ~rate ~pacing () =
  if rate <= 0.0 then invalid_arg "Probe_source.create: rate <= 0";
  if packet_size <= 0 then invalid_arg "Probe_source.create: packet_size <= 0";
  {
    engine;
    flow;
    packet_size;
    rate;
    pacing;
    transmit = (fun _ -> ());
    seq = 0;
    sent = 0;
    running = false;
  }

let set_transmit t f = t.transmit <- f

let next_gap t =
  match t.pacing with
  | Cbr -> 1.0 /. t.rate
  | Poisson rng -> Dist.exponential rng ~rate:t.rate

let send_loop t =
  (* One self-rescheduling thunk per start, not one closure per packet. *)
  let rec tick () =
    if t.running then begin
      let pkt =
        Packet.data ~flow:t.flow ~seq:t.seq ~size:t.packet_size
          ~sent_at:(Engine.now t.engine)
      in
      t.seq <- t.seq + 1;
      t.sent <- t.sent + 1;
      t.transmit pkt;
      Engine.schedule_unit t.engine
        ~at:(Engine.now t.engine +. next_gap t)
        tick
    end
  in
  tick ()

let start t =
  if not t.running then begin
    t.running <- true;
    send_loop t
  end

let stop t = t.running <- false
let sent t = t.sent
let flow t = t.flow
