(* Loss modules that are not queues: the Bernoulli dropper used by the
   paper's Claim-2 experiments (each packet dropped independently with a
   fixed probability, irrespective of its length — RED "packet mode"
   taken to its memoryless limit), and a deterministic periodic dropper
   used in tests.

   The Bernoulli dropper exploits memorylessness: the number of passed
   packets between consecutive drops is Geometric(p), so it samples
   that gap once per loss event and counts packets down. Same process
   in distribution as one uniform draw per packet (pinned against a
   per-packet reference by a chi-square test), ~1/p fewer RNG draws. *)

module Tm = Ebrc_telemetry.Telemetry

let k_offered =
  Tm.Probe.counter ~help:"packets offered to loss modules"
    "loss_module.offered"

let k_drops =
  Tm.Probe.counter ~help:"packets dropped by loss modules" "loss_module.drops"

type t = {
  mutable pass : Packet.t -> bool;   (* true = forward, false = drop *)
  mutable dropped : int;
  mutable offered : int;
}

let stats t = (t.offered, t.dropped)

let add_probes t set =
  Tm.Probe.add set k_offered (fun () -> t.offered);
  Tm.Probe.add set k_drops (fun () -> t.dropped)

let process t pkt =
  t.offered <- t.offered + 1;
  if t.pass pkt then true
  else begin
    t.dropped <- t.dropped + 1;
    false
  end

let check_p name p =
  if p < 0.0 || p >= 1.0 then
    invalid_arg ("Loss_module." ^ name ^ ": p must be in [0,1)")

let bernoulli rng ~p =
  check_p "bernoulli" p;
  if p = 0.0 then { pass = (fun _ -> true); dropped = 0; offered = 0 }
  else begin
    (* [remaining] = packets still to pass before the next drop; -1 =
       gap not yet sampled. Geometric(p) counts the Bernoulli failures
       before the first success, which is exactly the run of passed
       packets before a drop. *)
    let remaining = ref (-1) in
    {
      pass =
        (fun _ ->
          if !remaining < 0 then remaining := Ebrc_rng.Dist.geometric rng ~p;
          if !remaining = 0 then begin
            remaining := -1;
            false
          end
          else begin
            decr remaining;
            true
          end);
      dropped = 0;
      offered = 0;
    }
  end

let periodic ~period =
  if period < 1 then invalid_arg "Loss_module.periodic: period must be >= 1";
  let n = ref 0 in
  {
    pass =
      (fun _ ->
        incr n;
        !n mod period <> 0);
    dropped = 0;
    offered = 0;
  }

let lossless () = { pass = (fun _ -> true); dropped = 0; offered = 0 }

(* Length-dependent Bernoulli dropper: per-packet drop probability
   proportional to the packet size (RED "byte mode"). This breaks the
   independence assumption behind Claim 2 — an adaptive audio source
   sending bigger packets gets dropped more — and is used as the
   ablation contrast to [bernoulli]. *)
let bernoulli_bytes rng ~p_ref ~ref_size =
  if p_ref < 0.0 || p_ref >= 1.0 then
    invalid_arg "Loss_module.bernoulli_bytes: p_ref must be in [0,1)";
  if ref_size <= 0 then
    invalid_arg "Loss_module.bernoulli_bytes: ref_size must be positive";
  {
    pass =
      (fun pkt ->
        let p =
          Float.min 0.999
            (p_ref *. float_of_int pkt.Packet.size /. float_of_int ref_size)
        in
        not (Ebrc_rng.Dist.bernoulli rng ~p));
    dropped = 0;
    offered = 0;
  }

(* Gilbert-Elliott two-state dropper: bursty losses for robustness tests.
   In the Bad state packets drop with probability p_bad; state
   transitions occur per packet. *)
let gilbert_elliott rng ~p_good ~p_bad ~good_to_bad ~bad_to_good =
  let check name v =
    if v < 0.0 || v > 1.0 then
      invalid_arg ("Loss_module.gilbert_elliott: " ^ name ^ " not in [0,1]")
  in
  check "p_good" p_good;
  check "p_bad" p_bad;
  check "good_to_bad" good_to_bad;
  check "bad_to_good" bad_to_good;
  let in_good = ref true in
  {
    pass =
      (fun _ ->
        let switch_p = if !in_good then good_to_bad else bad_to_good in
        if Ebrc_rng.Dist.bernoulli rng ~p:switch_p then
          in_good := not !in_good;
        let p = if !in_good then p_good else p_bad in
        not (Ebrc_rng.Dist.bernoulli rng ~p));
    dropped = 0;
    offered = 0;
  }
