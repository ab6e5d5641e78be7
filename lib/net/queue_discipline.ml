(* Queue disciplines for the bottleneck link: DropTail and RED.

   RED follows the classic Floyd/Jacobson design as configured in ns-2
   and in the paper's experiments: an EWMA of the instantaneous queue
   length, linear drop probability between min and max thresholds,
   forced drop above the max threshold, non-"gentle" mode, and the
   count-based spacing of drops. The queue operates in packet mode
   (drop decisions independent of packet length), which is the mode the
   paper's Claim-2 audio experiments rely on. *)

module Tm = Ebrc_telemetry.Telemetry

let k_enqueues =
  Tm.Probe.counter ~help:"packets admitted by any queue discipline"
    "queue.enqueues"

let k_drops =
  Tm.Probe.counter ~help:"packets dropped by any queue discipline"
    "queue.drops"

let k_red_early =
  Tm.Probe.counter ~help:"RED probabilistic (early) drops"
    "queue.red_early_drops"

let k_red_forced =
  Tm.Probe.counter ~help:"RED forced drops (buffer full or above max_th)"
    "queue.red_forced_drops"

let k_occupancy =
  Tm.Probe.gauge ~help:"queue occupancy (packets)" "queue.occupancy"

type decision = Enqueue | Drop

type red_params = {
  min_th : float;      (* packets *)
  max_th : float;      (* packets *)
  max_p : float;       (* drop probability at max_th *)
  wq : float;          (* EWMA weight (ns-2 default 0.002) *)
  byte_mode : bool;    (* scale the drop probability by packet size;
                          packet mode (false) drops independently of
                          length — the mode Claim 2 relies on *)
  mean_pktsize : int;  (* byte-mode reference size *)
  gentle : bool;       (* ramp drop prob from max_p to 1 over
                          [max_th, 2 max_th] instead of a hard drop wall
                          (the mode the paper's Linux kernel lacked) *)
}

let default_red ~bdp =
  (* The paper's ns-2 setup: min 1/4 BDP, max 5/4 BDP, packet mode. *)
  { min_th = 0.25 *. bdp; max_th = 1.25 *. bdp; max_p = 0.1; wq = 0.002;
    byte_mode = false; mean_pktsize = 1000; gentle = false }

type kind =
  | Drop_tail
  | Red of red_params

type t = {
  kind : kind;
  capacity : int;                    (* buffer length, packets *)
  mutable occupancy : int;           (* current queue length, packets *)
  mutable avg : float;               (* RED average queue length *)
  mutable count : int;               (* packets since last RED drop *)
  mutable idle_since : float option; (* start of the current idle period *)
  mutable drops : int;
  mutable enqueues : int;
  mutable red_early : int;           (* RED drops below the forced wall *)
  mutable red_forced : int;          (* RED drops at the wall or full *)
  service_rate : float;              (* pkt/s, for RED idle compensation *)
}

let create ?(service_rate = 0.0) ~capacity kind =
  if capacity < 1 then
    invalid_arg "Queue_discipline.create: capacity must be >= 1";
  (match kind with
  | Drop_tail -> ()
  | Red p ->
      if not (0.0 <= p.min_th && p.min_th < p.max_th) then
        invalid_arg "Queue_discipline.create: need 0 <= min_th < max_th";
      if p.max_p <= 0.0 || p.max_p > 1.0 then
        invalid_arg "Queue_discipline.create: max_p not in (0,1]";
      if p.wq <= 0.0 || p.wq > 1.0 then
        invalid_arg "Queue_discipline.create: wq not in (0,1]");
  {
    kind;
    capacity;
    occupancy = 0;
    avg = 0.0;
    count = -1;
    idle_since = None;
    drops = 0;
    enqueues = 0;
    red_early = 0;
    red_forced = 0;
    service_rate;
  }

let add_probes t set =
  Tm.Probe.add set k_enqueues (fun () -> t.enqueues);
  Tm.Probe.add set k_drops (fun () -> t.drops);
  Tm.Probe.add set k_red_early (fun () -> t.red_early);
  Tm.Probe.add set k_red_forced (fun () -> t.red_forced);
  Tm.Probe.add set k_occupancy (fun () -> t.occupancy)

let occupancy t = t.occupancy
let drops t = t.drops
let enqueues t = t.enqueues
let average_queue t = t.avg

(* Only RED consumes the uniform draw in [offer]; DropTail callers can
   skip generating one entirely (the link's RNG stream is private to
   it, so skipping draws there changes nothing observable). *)
let needs_random t = match t.kind with Drop_tail -> false | Red _ -> true

let[@inline] update_avg t ~now =
  match t.kind with
  | Drop_tail -> ()
  | Red p ->
      (match t.idle_since with
      | Some t0 when t.service_rate > 0.0 ->
          (* ns-2 idle compensation: pretend m small packets departed. *)
          let m = (now -. t0) *. t.service_rate in
          let decay = (1.0 -. p.wq) ** max 0.0 m in
          t.avg <- t.avg *. decay;
          t.idle_since <- None
      | Some _ -> t.idle_since <- None
      | None -> ());
      t.avg <- ((1.0 -. p.wq) *. t.avg) +. (p.wq *. float_of_int t.occupancy)

(* Decide the fate of an arriving packet and update state when enqueued.
   [u] must be a fresh uniform (0,1) draw for RED randomisation;
   [bytes] only matters for byte-mode RED. Inlined into the link's
   send path, so the clock and the draw reach it unboxed; an optional
   [?bytes] would keep the body out of line (the compiler splits an
   optional-argument function into a wrapper and an inner body, and
   inlines only the wrapper). *)
let[@inline] offer t ~bytes ~now ~u =
  match t.kind with
  | Drop_tail ->
      if t.occupancy >= t.capacity then begin
        t.drops <- t.drops + 1;
        Drop
      end
      else begin
        t.occupancy <- t.occupancy + 1;
        t.enqueues <- t.enqueues + 1;
        Enqueue
      end
  | Red p ->
      update_avg t ~now;
      let hard_full = t.occupancy >= t.capacity in
      let forced = ref true in
      let verdict =
        if hard_full then Drop
        else if t.avg < p.min_th then Enqueue
        else if t.avg >= p.max_th && not p.gentle then Drop (* forced drop *)
        else if t.avg >= 2.0 *. p.max_th then Drop          (* gentle wall *)
        else begin
          forced := false;
          t.count <- t.count + 1;
          let pb =
            if t.avg < p.max_th then
              p.max_p *. (t.avg -. p.min_th) /. (p.max_th -. p.min_th)
            else
              (* gentle region: ramp from max_p to 1 over one max_th *)
              p.max_p
              +. ((1.0 -. p.max_p) *. (t.avg -. p.max_th) /. p.max_th)
          in
          let pb =
            if p.byte_mode then
              Float.min 1.0
                (pb *. float_of_int bytes /. float_of_int p.mean_pktsize)
            else pb
          in
          let pa =
            let d = 1.0 -. (float_of_int t.count *. pb) in
            if d <= 0.0 then 1.0 else pb /. d
          in
          if u < pa then Drop else Enqueue
        end
      in
      (match verdict with
      | Drop ->
          t.drops <- t.drops + 1;
          t.count <- 0;
          if !forced then t.red_forced <- t.red_forced + 1
          else t.red_early <- t.red_early + 1
      | Enqueue ->
          t.occupancy <- t.occupancy + 1;
          t.enqueues <- t.enqueues + 1;
          if t.avg >= p.min_th then ()
          else t.count <- -1);
      verdict

(* Hybrid-path variant of [offer]: the drop decision sees the queue
   depth inflated by [extra] — the fluid background backlog in packets
   (Fluid.queue_pkts). A separate entry point rather than a parameter
   on [offer], so the packet-only path above stays byte-for-byte the
   pre-hybrid code. *)
let offer_fluid t ~bytes ~now ~u ~extra =
  match t.kind with
  | Drop_tail ->
      if float_of_int t.occupancy +. extra >= float_of_int t.capacity then begin
        t.drops <- t.drops + 1;
        Drop
      end
      else begin
        t.occupancy <- t.occupancy + 1;
        t.enqueues <- t.enqueues + 1;
        Enqueue
      end
  | Red p ->
      (* RED's EWMA tracks the {e total} instantaneous queue — fluid
         backlog included — so the early-drop ramp reacts to congestion
         the background aggregate causes. *)
      (match t.idle_since with
      | Some t0 when t.service_rate > 0.0 ->
          let m = (now -. t0) *. t.service_rate in
          let decay = (1.0 -. p.wq) ** max 0.0 m in
          (* Packet-idle is not link-idle here: the fluid backlog
             persisted through the gap, so the average decays toward
             that floor rather than toward an empty queue. *)
          t.avg <- extra +. ((t.avg -. extra) *. decay);
          t.idle_since <- None
      | Some _ -> t.idle_since <- None
      | None -> ());
      t.avg <-
        ((1.0 -. p.wq) *. t.avg)
        +. (p.wq *. (float_of_int t.occupancy +. extra));
      let hard_full = float_of_int t.occupancy +. extra >= float_of_int t.capacity in
      let forced = ref true in
      let verdict =
        if hard_full then Drop
        else if t.avg < p.min_th then Enqueue
        else if t.avg >= p.max_th && not p.gentle then Drop
        else if t.avg >= 2.0 *. p.max_th then Drop
        else begin
          forced := false;
          t.count <- t.count + 1;
          let pb =
            if t.avg < p.max_th then
              p.max_p *. (t.avg -. p.min_th) /. (p.max_th -. p.min_th)
            else
              p.max_p
              +. ((1.0 -. p.max_p) *. (t.avg -. p.max_th) /. p.max_th)
          in
          let pb =
            if p.byte_mode then
              Float.min 1.0
                (pb *. float_of_int bytes /. float_of_int p.mean_pktsize)
            else pb
          in
          let pa =
            let d = 1.0 -. (float_of_int t.count *. pb) in
            if d <= 0.0 then 1.0 else pb /. d
          in
          if u < pa then Drop else Enqueue
        end
      in
      (match verdict with
      | Drop ->
          t.drops <- t.drops + 1;
          t.count <- 0;
          if !forced then t.red_forced <- t.red_forced + 1
          else t.red_early <- t.red_early + 1
      | Enqueue ->
          t.occupancy <- t.occupancy + 1;
          t.enqueues <- t.enqueues + 1;
          if t.avg >= p.min_th then ()
          else t.count <- -1);
      verdict

(* A packet departed the queue (finished service). *)
let[@inline] departure t ~now =
  if t.occupancy <= 0 then
    invalid_arg "Queue_discipline.departure: queue empty";
  t.occupancy <- t.occupancy - 1;
  if t.occupancy = 0 then t.idle_since <- Some now
