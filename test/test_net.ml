(* Tests for the network elements: packets, DropTail and RED queues,
   links, loss modules, the loss-event accountant, and the probe's
   gap-detecting sink. *)

module P = Ebrc.Packet
module QD = Ebrc.Queue_discipline
module Link = Ebrc.Link
module LM = Ebrc.Loss_module
module LE = Ebrc.Loss_events
module GS = Ebrc.Gap_sink
module LH = Ebrc.Loss_history
module E = Ebrc.Engine
module Prng = Ebrc.Prng

let feq ?(eps = 1e-9) a b =
  Alcotest.(check bool)
    (Printf.sprintf "%.12g ~ %.12g" a b)
    true
    (abs_float (a -. b) <= eps *. (1.0 +. abs_float a +. abs_float b))

(* --------------------------- packets --------------------------- *)

let test_packet_constructors () =
  let d = P.data ~flow:1 ~seq:5 ~size:1000 ~sent_at:2.0 in
  Alcotest.(check bool) "data" true (P.is_data d);
  Alcotest.(check int) "bits" 8000 (P.bits d);
  let a = P.ack ~flow:1 ~seq:0 ~acked:4 ~dup:false ~sent_at:2.1 in
  Alcotest.(check bool) "ack not data" false (P.is_data a);
  Alcotest.(check int) "ack size" 40 a.P.size;
  let f =
    P.feedback ~flow:1 ~seq:0 ~p_estimate:0.01 ~recv_rate:100.0 ~rtt_echo:1.9
      ~hold:0.02 ~sent_at:2.2
  in
  match f.P.kind with
  | P.Feedback fb ->
      feq fb.p_estimate 0.01;
      feq fb.hold 0.02
  | P.Data | P.Ack _ -> Alcotest.fail "wrong kind"

let test_packet_invalid_size () =
  match P.data ~flow:0 ~seq:0 ~size:0 ~sent_at:0.0 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* -------------------------- DropTail --------------------------- *)

let test_droptail_accepts_until_full () =
  let q = QD.create ~capacity:3 QD.Drop_tail in
  let offer () = QD.offer q ~now:0.0 ~u:0.5 in
  Alcotest.(check bool) "1" true (offer () = QD.Enqueue);
  Alcotest.(check bool) "2" true (offer () = QD.Enqueue);
  Alcotest.(check bool) "3" true (offer () = QD.Enqueue);
  Alcotest.(check bool) "4 drops" true (offer () = QD.Drop);
  Alcotest.(check int) "occupancy" 3 (QD.occupancy q);
  Alcotest.(check int) "drops" 1 (QD.drops q);
  Alcotest.(check int) "enqueues" 3 (QD.enqueues q)

let test_droptail_departure_frees_slot () =
  let q = QD.create ~capacity:1 QD.Drop_tail in
  ignore (QD.offer q ~now:0.0 ~u:0.5);
  Alcotest.(check bool) "full" true (QD.offer q ~now:0.0 ~u:0.5 = QD.Drop);
  QD.departure q ~now:1.0;
  Alcotest.(check bool) "freed" true (QD.offer q ~now:1.0 ~u:0.5 = QD.Enqueue)

let test_departure_empty_raises () =
  let q = QD.create ~capacity:1 QD.Drop_tail in
  match QD.departure q ~now:0.0 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ----------------------------- RED ----------------------------- *)

let red_params =
  { QD.min_th = 5.0; max_th = 15.0; max_p = 0.1; wq = 0.2; byte_mode = false;
    mean_pktsize = 1000; gentle = false }

let test_red_no_drops_below_min_th () =
  let q = QD.create ~capacity:100 (QD.Red red_params) in
  (* Keep the queue short: no random drops while avg < min_th. *)
  for i = 1 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "enqueue %d" i)
      true
      (QD.offer q ~now:(float_of_int i) ~u:0.0001 = QD.Enqueue)
  done;
  Alcotest.(check int) "no drops" 0 (QD.drops q)

let test_red_drops_probabilistically_between_thresholds () =
  let q = QD.create ~capacity:100 (QD.Red red_params) in
  (* Fill to raise the average well between thresholds. *)
  let dropped = ref 0 and offered = ref 0 in
  let rng = Prng.create ~seed:5 in
  for i = 1 to 200 do
    incr offered;
    match QD.offer q ~now:(float_of_int i *. 0.01) ~u:(Prng.float_unit rng) with
    | QD.Drop -> incr dropped
    | QD.Enqueue ->
        (* Serve occasionally to stay around 10 packets. *)
        if QD.occupancy q > 10 then QD.departure q ~now:(float_of_int i *. 0.01)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "some but not all dropped (%d/200)" !dropped)
    true
    (!dropped > 0 && !dropped < 100)

let test_red_forced_drop_above_max_th () =
  let q = QD.create ~capacity:1000 (QD.Red { red_params with wq = 1.0 }) in
  (* wq = 1: the average tracks the instantaneous queue exactly. *)
  for i = 1 to 20 do
    ignore (QD.offer q ~now:(float_of_int i *. 1e-3) ~u:0.999)
  done;
  (* occupancy/avg now >= max_th = 15 -> forced drop regardless of u. *)
  Alcotest.(check bool) "forced drop" true
    (QD.offer q ~now:0.05 ~u:0.999999 = QD.Drop)

let test_red_hard_limit () =
  let q = QD.create ~capacity:2 (QD.Red { red_params with min_th = 100.0; max_th = 200.0 }) in
  ignore (QD.offer q ~now:0.0 ~u:0.5);
  ignore (QD.offer q ~now:0.0 ~u:0.5);
  Alcotest.(check bool) "hard full" true (QD.offer q ~now:0.0 ~u:0.5 = QD.Drop)

let test_red_average_decays_when_idle () =
  let q =
    QD.create ~service_rate:100.0 ~capacity:100
      (QD.Red { red_params with wq = 0.5 })
  in
  (* u close to 1 means "never randomly dropped". *)
  for i = 1 to 10 do
    ignore (QD.offer q ~now:(float_of_int i *. 1e-3) ~u:0.999999)
  done;
  let avg_busy = QD.average_queue q in
  while QD.occupancy q > 0 do
    QD.departure q ~now:0.011
  done;
  (* After a long idle period the EWMA must have decayed. *)
  ignore (QD.offer q ~now:10.0 ~u:1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "decayed: %.3f -> %.3f" avg_busy (QD.average_queue q))
    true
    (QD.average_queue q < avg_busy /. 2.0)

let test_red_default_params () =
  let p = QD.default_red ~bdp:100.0 in
  feq p.QD.min_th 25.0;
  feq p.QD.max_th 125.0;
  feq p.QD.max_p 0.1;
  feq p.QD.wq 0.002

let test_red_invalid_params () =
  match
    QD.create ~capacity:10
      (QD.Red { red_params with min_th = 5.0; max_th = 4.0 })
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ---------------------------- link ----------------------------- *)

let test_link_delivers_with_delay () =
  let engine = E.create () in
  let q = QD.create ~capacity:10 QD.Drop_tail in
  let link =
    Link.create ~engine ~rate_bps:8000.0 ~delay:0.5 ~queue:q
      ~rng:(Prng.create ~seed:1)
  in
  let delivered = ref [] in
  Link.set_deliver link (fun pkt -> delivered := (E.now engine, pkt.P.seq) :: !delivered);
  (* 1000-byte packet at 8000 bps: 1 s transmission + 0.5 s delay. *)
  ignore
    (E.schedule engine ~at:0.0 (fun () ->
         Link.send link (P.data ~flow:0 ~seq:0 ~size:1000 ~sent_at:0.0)));
  ignore (E.run engine);
  match !delivered with
  | [ (t, 0) ] -> feq t 1.5
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_link_serialises_back_to_back () =
  let engine = E.create () in
  let q = QD.create ~capacity:10 QD.Drop_tail in
  let link =
    Link.create ~engine ~rate_bps:8000.0 ~delay:0.0 ~queue:q
      ~rng:(Prng.create ~seed:1)
  in
  let times = ref [] in
  Link.set_deliver link (fun _ -> times := E.now engine :: !times);
  ignore
    (E.schedule engine ~at:0.0 (fun () ->
         Link.send link (P.data ~flow:0 ~seq:0 ~size:1000 ~sent_at:0.0);
         Link.send link (P.data ~flow:0 ~seq:1 ~size:1000 ~sent_at:0.0)));
  ignore (E.run engine);
  match List.rev !times with
  | [ t1; t2 ] ->
      feq t1 1.0;
      feq t2 2.0
  | _ -> Alcotest.fail "expected two deliveries"

let test_link_drop_hook_and_counters () =
  let engine = E.create () in
  let q = QD.create ~capacity:1 QD.Drop_tail in
  let link =
    Link.create ~engine ~rate_bps:8000.0 ~delay:0.0 ~queue:q
      ~rng:(Prng.create ~seed:1)
  in
  let drops = ref 0 in
  Link.set_on_drop link (fun _ -> incr drops);
  ignore
    (E.schedule engine ~at:0.0 (fun () ->
         for i = 0 to 4 do
           Link.send link (P.data ~flow:0 ~seq:i ~size:1000 ~sent_at:0.0)
         done));
  ignore (E.run engine);
  (* Occupancy counts the in-service packet until it departs, so with
     capacity 1 only the first of five simultaneous sends is admitted:
     1 delivered, 4 dropped. *)
  Alcotest.(check int) "delivered" 1 (Link.delivered link);
  Alcotest.(check int) "dropped" 4 !drops;
  feq (Link.utilization link ~duration:1.0) 1.0

let test_link_transmission_time () =
  let engine = E.create () in
  let q = QD.create ~capacity:1 QD.Drop_tail in
  let link =
    Link.create ~engine ~rate_bps:1e6 ~delay:0.0 ~queue:q
      ~rng:(Prng.create ~seed:1)
  in
  feq
    (Link.transmission_time link (P.data ~flow:0 ~seq:0 ~size:1250 ~sent_at:0.0))
    0.01

(* ------------------------ loss modules ------------------------- *)

(* Drive [n] packets through a dropper and return the per-packet
   pass/drop verdicts (true = passed). *)
let verdicts lm n =
  List.init n (fun i ->
      LM.process lm (P.data ~flow:0 ~seq:i ~size:100 ~sent_at:0.0))

let test_bernoulli_dropper_rate () =
  let rng = Prng.create ~seed:3 in
  let lm = LM.bernoulli rng ~p:0.2 in
  let passed = ref 0 in
  for i = 0 to 49_999 do
    if LM.process lm (P.data ~flow:0 ~seq:i ~size:100 ~sent_at:0.0) then
      incr passed
  done;
  let offered, dropped = LM.stats lm in
  Alcotest.(check int) "offered" 50_000 offered;
  Alcotest.(check bool)
    (Printf.sprintf "drop rate %.3f ~ 0.2" (float_of_int dropped /. 50_000.0))
    true
    (abs_float ((float_of_int dropped /. 50_000.0) -. 0.2) < 0.01);
  Alcotest.(check int) "conservation" 50_000 (!passed + dropped)

let test_periodic_dropper () =
  let lm = LM.periodic ~period:3 in
  let verdicts =
    List.init 9 (fun i ->
        LM.process lm (P.data ~flow:0 ~seq:i ~size:100 ~sent_at:0.0))
  in
  Alcotest.(check (list bool)) "every 3rd dropped"
    [ true; true; false; true; true; false; true; true; false ]
    verdicts

(* Reference for the gap-skipping dropper: one Bernoulli draw per
   packet, the direct reading of "each packet dropped independently
   with probability p". *)
let per_packet_verdicts rng ~p n =
  List.init n (fun _ -> not (Ebrc.Dist.bernoulli rng ~p))

let test_gap_skip_drop_rate_matches_per_packet () =
  (* The gap-skipped sampler and the per-packet reference draw
     different random streams, so equivalence is statistical: both
     must hit the target drop rate. *)
  let n = 50_000 and p = 0.2 in
  let rate_of vs =
    let dropped =
      List.fold_left (fun d pass -> if pass then d else d + 1) 0 vs
    in
    float_of_int dropped /. float_of_int n
  in
  let gap_rate = rate_of (verdicts (LM.bernoulli (Prng.create ~seed:11) ~p) n) in
  let per_rate = rate_of (per_packet_verdicts (Prng.create ~seed:11) ~p n) in
  Alcotest.(check bool)
    (Printf.sprintf "gap-skip rate %.4f ~ %.1f" gap_rate p)
    true
    (abs_float (gap_rate -. p) < 0.01);
  Alcotest.(check bool)
    (Printf.sprintf "per-packet rate %.4f ~ %.1f" per_rate p)
    true
    (abs_float (per_rate -. p) < 0.01)

let test_gap_skip_chi_squared () =
  (* Under i.i.d. Bernoulli(p) drops, the number of passed packets
     between consecutive drops is Geometric(p) on {0, 1, ...} with pmf
     p (1-p)^k. Bin the observed gaps from the gap-skipped sampler and
     compare with the exact pmf via a chi-squared statistic. With 15
     bins (k = 0..13 plus a pooled tail), the 99.9% critical value for
     14 degrees of freedom is 36.1; the seed is fixed, so this is a
     deterministic regression gate, not a flaky sampling test. *)
  let p = 0.1 and n = 200_000 and nbins = 15 in
  let lm = LM.bernoulli (Prng.create ~seed:5) ~p in
  let bins = Array.make nbins 0 in
  let gaps = ref 0 in
  let run = ref 0 in
  List.iter
    (fun pass ->
      if pass then incr run
      else begin
        let k = min !run (nbins - 1) in
        bins.(k) <- bins.(k) + 1;
        incr gaps;
        run := 0
      end)
    (verdicts lm n);
  Alcotest.(check bool) "enough loss events" true (!gaps > 10_000);
  let total = float_of_int !gaps in
  let chi2 = ref 0.0 in
  for k = 0 to nbins - 1 do
    let prob =
      if k < nbins - 1 then p *. ((1.0 -. p) ** float_of_int k)
      else (1.0 -. p) ** float_of_int (nbins - 1) (* pooled tail *)
    in
    let expected = total *. prob in
    let diff = float_of_int bins.(k) -. expected in
    chi2 := !chi2 +. (diff *. diff /. expected)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "chi2 %.2f < 36.1" !chi2)
    true (!chi2 < 36.1)

let test_gap_skip_p_zero_and_one () =
  (* Degenerate rates must not hang or divide by zero: p = 0 is a
     lossless fast path, p = 1 is rejected (both samplers require
     p in [0,1)), and p near 1 drops almost everything. *)
  let lossless = LM.bernoulli (Prng.create ~seed:1) ~p:0.0 in
  List.iter (fun pass -> Alcotest.(check bool) "p=0 passes" true pass)
    (verdicts lossless 100);
  (match LM.bernoulli (Prng.create ~seed:1) ~p:1.0 with
  | _ -> Alcotest.fail "expected Invalid_argument for p=1"
  | exception Invalid_argument _ -> ());
  let near_wall = LM.bernoulli (Prng.create ~seed:1) ~p:0.99 in
  let dropped =
    List.fold_left (fun d pass -> if pass then d else d + 1) 0
      (verdicts near_wall 1000)
  in
  Alcotest.(check bool)
    (Printf.sprintf "p=0.99 drops %d/1000" dropped)
    true (dropped > 950)

let test_loss_module_telemetry_counters () =
  let module Tm = Ebrc.Telemetry in
  Tm.set_enabled true;
  Tm.reset ();
  Fun.protect
    ~finally:(fun () ->
      Tm.set_enabled false;
      Tm.reset ())
    (fun () ->
      (* The module counts; the run's engine absorbs its probes into
         the totals when a run ends. *)
      let lm = LM.periodic ~period:3 in
      let engine = Ebrc.Engine.create () in
      LM.add_probes lm engine.Ebrc.Engine.probes;
      ignore (verdicts lm 9);
      ignore (Ebrc.Engine.run engine : Ebrc.Engine.stop_reason);
      let count name =
        match
          List.find_opt (fun s -> s.Tm.snap_name = name) (Tm.snapshot ())
        with
        | Some s -> s.Tm.count
        | None -> 0
      in
      Alcotest.(check int) "offered" 9 (count "loss_module.offered");
      Alcotest.(check int) "drops" 3 (count "loss_module.drops"))

let test_lossless () =
  let lm = LM.lossless () in
  for i = 0 to 99 do
    Alcotest.(check bool) "passes" true
      (LM.process lm (P.data ~flow:0 ~seq:i ~size:100 ~sent_at:0.0))
  done

let test_bernoulli_bytes_length_dependence () =
  let rng = Prng.create ~seed:7 in
  let lm = LM.bernoulli_bytes rng ~p_ref:0.1 ~ref_size:1000 in
  let drops_for size =
    let d = ref 0 in
    for i = 0 to 19_999 do
      if not (LM.process lm (P.data ~flow:0 ~seq:i ~size ~sent_at:0.0)) then
        incr d
    done;
    float_of_int !d /. 20_000.0
  in
  let small = drops_for 100 and big = drops_for 2000 in
  Alcotest.(check bool)
    (Printf.sprintf "small %.4f ~ 0.01" small)
    true
    (abs_float (small -. 0.01) < 0.005);
  Alcotest.(check bool)
    (Printf.sprintf "big %.4f ~ 0.2" big)
    true
    (abs_float (big -. 0.2) < 0.02)

let test_red_byte_mode_prefers_small_packets () =
  (* At the same average queue, byte-mode RED drops large packets more
     often than small ones. *)
  let params =
    { red_params with byte_mode = true; mean_pktsize = 1000; wq = 1.0 }
  in
  let run_with size =
    let q = QD.create ~capacity:1000 (QD.Red params) in
    (* Pin the average between thresholds. *)
    for _ = 1 to 10 do
      ignore (QD.offer ~bytes:1000 q ~now:0.0 ~u:0.9999)
    done;
    let rng = Prng.create ~seed:9 in
    let drops = ref 0 in
    for _ = 1 to 2000 do
      match QD.offer ~bytes:size q ~now:0.0 ~u:(Prng.float_unit rng) with
      | QD.Drop -> incr drops
      | QD.Enqueue -> QD.departure q ~now:0.0
    done;
    !drops
  in
  let small = run_with 100 and big = run_with 2000 in
  Alcotest.(check bool)
    (Printf.sprintf "big packets dropped more: %d > %d" big small)
    true (big > small)

let test_gilbert_elliott_burstiness () =
  let rng = Prng.create ~seed:4 in
  let lm =
    LM.gilbert_elliott rng ~p_good:0.001 ~p_bad:0.5 ~good_to_bad:0.01
      ~bad_to_good:0.1
  in
  let losses = ref 0 in
  for i = 0 to 99_999 do
    if not (LM.process lm (P.data ~flow:0 ~seq:i ~size:100 ~sent_at:0.0)) then
      incr losses
  done;
  (* Stationary bad fraction = 0.01/(0.01+0.1) ~ 0.0909; expected loss
     ~ 0.0909*0.5 + 0.909*0.001 ~ 0.0464. *)
  let rate = float_of_int !losses /. 100_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "bursty loss rate %.4f in (0.02, 0.08)" rate)
    true
    (rate > 0.02 && rate < 0.08)

(* ------------------- probe sink and accountant ------------------ *)

let pkt seq = P.data ~flow:0 ~seq ~size:100 ~sent_at:0.0

let test_gap_sink_loss_event_aggregation () =
  let gs = GS.create ~window:0.1 in
  (* Two gaps within one window = one event; a later gap = another. *)
  GS.on_packet gs ~now:0.0 (pkt 0);
  GS.on_packet gs ~now:1.0 (pkt 2);
  GS.on_packet gs ~now:1.05 (pkt 4);
  GS.on_packet gs ~now:2.0 (pkt 6);
  Alcotest.(check int) "two events" 2 (LE.events (GS.loss_events gs));
  Alcotest.(check int) "received" 4 (GS.received gs)

let test_gap_sink_intervals () =
  let gs = GS.create ~window:0.1 in
  (* Seq 0 lost: the first event. The arrival that reveals a gap counts
     in the interval its event opens. *)
  GS.on_packet gs ~now:0.0 (pkt 1);
  for i = 2 to 10 do
    GS.on_packet gs ~now:(0.01 *. float_of_int i) (pkt i)
  done;
  GS.on_packet gs ~now:1.0 (pkt 12);
  for i = 13 to 31 do
    GS.on_packet gs ~now:(1.0 +. (0.01 *. float_of_int (i - 12))) (pkt i)
  done;
  GS.on_packet gs ~now:2.0 (pkt 33);
  let ev = GS.loss_events gs in
  let ivs = LE.intervals ev ~since:0 in
  Alcotest.(check int) "two completed intervals" 2 (Array.length ivs);
  feq ivs.(0) 10.0;
  feq ivs.(1) 20.0;
  feq (LE.rate ev ~since:0) (2.0 /. 30.0);
  feq (LE.rate ev ~since:1) (1.0 /. 20.0)

let test_gap_sink_detects_losses () =
  let gs = GS.create ~window:0.1 in
  GS.on_packet gs ~now:0.0 (pkt 0);
  GS.on_packet gs ~now:0.1 (pkt 1);
  GS.on_packet gs ~now:0.2 (pkt 3);   (* seq 2 lost *)
  GS.on_packet gs ~now:5.0 (pkt 10);  (* 4..9 lost, new event *)
  Alcotest.(check int) "2 loss events" 2 (LE.events (GS.loss_events gs));
  Alcotest.(check int) "received" 4 (GS.received gs)

let test_gap_sink_contiguous_no_loss () =
  let gs = GS.create ~window:0.1 in
  for i = 0 to 99 do
    GS.on_packet gs ~now:(float_of_int i *. 0.01) (pkt i)
  done;
  Alcotest.(check int) "no events" 0 (LE.events (GS.loss_events gs))

(* p'' counts every arrival, p only in-order ones: the same trace with
   one duplicate gives the probe a longer interval than TFRC's history. *)
let test_duplicate_counts_toward_p2_only () =
  let gs = GS.create ~window:0.5 and h = LH.create ~l:8 ~rtt:0.5 () in
  List.iter
    (fun (now, seq) ->
      GS.on_packet gs ~now (pkt seq);
      LH.on_packet h ~now ~seq)
    [ (0.0, 1); (0.1, 2); (0.2, 2); (0.3, 3); (1.0, 5) ];
  let ivs ev = Array.to_list (LE.intervals ev ~since:0) in
  Alcotest.(check (list (float 0.0))) "p'' interval" [ 4.0 ]
    (ivs (GS.loss_events gs));
  Alcotest.(check (list (float 0.0))) "p interval" [ 3.0 ]
    (ivs (LH.loss_events h))

(* ------------------------- properties -------------------------- *)

let prop_droptail_occupancy_bounded =
  QCheck.Test.make ~name:"DropTail occupancy never exceeds capacity"
    ~count:100
    QCheck.(pair (int_range 1 20) (list_of_size Gen.(int_range 1 200) bool))
    (fun (cap, ops) ->
      let q = QD.create ~capacity:cap QD.Drop_tail in
      List.for_all
        (fun enqueue ->
          if enqueue then ignore (QD.offer q ~now:0.0 ~u:0.5)
          else if QD.occupancy q > 0 then QD.departure q ~now:0.0;
          QD.occupancy q <= cap)
        ops)

let prop_bernoulli_conservation =
  QCheck.Test.make ~name:"loss module conserves packets" ~count:50
    QCheck.(pair small_nat (float_range 0.0 0.9))
    (fun (seed, p) ->
      let rng = Prng.create ~seed in
      let lm = LM.bernoulli rng ~p in
      let passed = ref 0 in
      for i = 0 to 999 do
        if LM.process lm (P.data ~flow:0 ~seq:i ~size:10 ~sent_at:0.0) then
          incr passed
      done;
      let offered, dropped = LM.stats lm in
      offered = 1000 && !passed + dropped = 1000)

(* A DropTail link against a closed-form FIFO. Arrivals of mixed
   sizes (zero gaps make bursts) are all scheduled up front, so at an
   equal instant an arrival precedes a departure: its ticket is older.
   At 2^20 bit/s a 128-byte (512-byte) packet takes exactly the
   1/1024 s (1/256 s) gap, so such ties are common. The reference:
   departure_k = max(arrival_k, departure_(k-1)) + 8 size_k / rate
   for each admitted packet; an arrival is dropped when the admitted
   packets not yet departed fill the queue; delivery is departure +
   delay. Deliveries (time, flow, seq), drops and the queue's
   occupancy right after each arrival must equal the reference. *)
let prop_link_fifo_reference =
  let rate = 1048576.0 in
  let sizes = [| 40; 128; 512; 1000; 1500 |] in
  let gaps = [| 0.0; 0.0; 1.0 /. 1024.0; 1.0 /. 256.0; 1.0 /. 64.0 |] in
  QCheck.Test.make ~name:"link matches a closed-form FIFO" ~count:200
    QCheck.(
      triple (int_range 1 20) bool
        (list_of_size
           Gen.(int_range 1 150)
           (pair (int_range 0 4) (int_range 0 4))))
    (fun (cap, delayed, trace) ->
      let delay = if delayed then 0.025 else 0.0 in
      let arrivals =
        let t = ref 0.0 in
        List.mapi
          (fun k (g, sz) ->
            t := !t +. gaps.(g);
            (k, !t, sizes.(sz)))
          trace
      in
      (* The reference. *)
      let deps = ref [] (* departure times of admitted packets *)
      and last = ref 0.0 in
      let exp_deliv = ref [] and exp_drops = ref [] and exp_occ = ref [] in
      List.iter
        (fun (k, a, size) ->
          let waiting = List.length (List.filter (fun d -> d >= a) !deps) in
          if waiting >= cap then exp_drops := (a, k mod 3, k) :: !exp_drops
          else begin
            let d = Float.max a !last +. (float_of_int (8 * size) /. rate) in
            last := d;
            deps := d :: !deps;
            exp_deliv := (d +. delay, k mod 3, k) :: !exp_deliv
          end;
          exp_occ :=
            List.length (List.filter (fun d -> d >= a) !deps) :: !exp_occ)
        arrivals;
      (* The link. *)
      let engine = E.create () in
      let q = QD.create ~capacity:cap QD.Drop_tail in
      let link =
        Link.create ~engine ~rate_bps:rate ~delay ~queue:q
          ~rng:(Prng.create ~seed:1)
      in
      let deliv = ref [] and drops = ref [] and occ = ref [] in
      Link.set_deliver link (fun p ->
          deliv := (E.now engine, p.P.flow, p.P.seq) :: !deliv);
      Link.set_on_drop link (fun p ->
          drops := (E.now engine, p.P.flow, p.P.seq) :: !drops);
      List.iter
        (fun (k, a, size) ->
          E.schedule_unit engine ~at:a (fun () ->
              Link.send link (P.data ~flow:(k mod 3) ~seq:k ~size ~sent_at:a);
              occ := QD.occupancy q :: !occ))
        arrivals;
      ignore (E.run engine);
      !deliv = !exp_deliv && !drops = !exp_drops && !occ = !exp_occ)

(* The paper's rule over a whole trace, written as a list: an indication
   opens an event when it comes more than its window after the previous
   event's start; each interval is the count between consecutive
   starts. Times are multiples of 1/4, so ties with the window are
   exact. *)
let prop_loss_events_match_model =
  let dts = [| 0.0; 0.25; 0.5; 1.0 |] and windows = [| 0.25; 0.5; 1.0 |] in
  QCheck.Test.make ~name:"loss-event accountant matches the paper's rule"
    ~count:300
    QCheck.(
      list_of_size
        Gen.(int_range 0 80)
        (quad (int_range 0 3) (int_range 0 5) bool (int_range 0 2)))
    (fun trace ->
      let ev = LE.create () in
      let now = ref 0.0 and count = ref 0 and starts = ref [] in
      List.iter
        (fun (dt, dn, loss, w) ->
          now := !now +. dts.(dt);
          count := !count + dn;
          if loss then begin
            let window = windows.(w) in
            ignore (LE.on_loss ev ~now:!now ~window ~count:!count);
            match !starts with
            | (t0, _) :: _ when !now -. t0 <= window -> ()
            | _ -> starts := (!now, !count) :: !starts
          end)
        trace;
      let rec gaps = function
        | a :: (b :: _ as rest) -> float_of_int (b - a) :: gaps rest
        | _ -> []
      in
      let ivs = gaps (List.rev_map snd !starts) in
      let rate ivs =
        if ivs = [] then 0.0
        else float_of_int (List.length ivs) /. List.fold_left ( +. ) 0.0 ivs
      in
      let half = List.length ivs / 2 in
      LE.events ev = List.length !starts
      && LE.completed ev = List.length ivs
      && Array.to_list (LE.intervals ev ~since:0) = ivs
      && LE.rate ev ~since:0 = rate ivs
      && LE.rate ev ~since:half = rate (List.filteri (fun i _ -> i >= half) ivs))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_droptail_occupancy_bounded; prop_bernoulli_conservation;
      prop_link_fifo_reference; prop_loss_events_match_model ]

let () =
  Alcotest.run "net"
    [
      ( "packet",
        [
          Alcotest.test_case "constructors" `Quick test_packet_constructors;
          Alcotest.test_case "invalid size" `Quick test_packet_invalid_size;
        ] );
      ( "droptail",
        [
          Alcotest.test_case "fills then drops" `Quick test_droptail_accepts_until_full;
          Alcotest.test_case "departure frees" `Quick test_droptail_departure_frees_slot;
          Alcotest.test_case "empty departure raises" `Quick test_departure_empty_raises;
        ] );
      ( "red",
        [
          Alcotest.test_case "no drops below min_th" `Quick test_red_no_drops_below_min_th;
          Alcotest.test_case "probabilistic between thresholds" `Quick test_red_drops_probabilistically_between_thresholds;
          Alcotest.test_case "forced above max_th" `Quick test_red_forced_drop_above_max_th;
          Alcotest.test_case "hard limit" `Quick test_red_hard_limit;
          Alcotest.test_case "idle decay" `Quick test_red_average_decays_when_idle;
          Alcotest.test_case "ns-2 default geometry" `Quick test_red_default_params;
          Alcotest.test_case "invalid params" `Quick test_red_invalid_params;
        ] );
      ( "link",
        [
          Alcotest.test_case "delivery with delay" `Quick test_link_delivers_with_delay;
          Alcotest.test_case "serialisation" `Quick test_link_serialises_back_to_back;
          Alcotest.test_case "drop hook + counters" `Quick test_link_drop_hook_and_counters;
          Alcotest.test_case "transmission time" `Quick test_link_transmission_time;
        ] );
      ( "loss_module",
        [
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_dropper_rate;
          Alcotest.test_case "periodic" `Quick test_periodic_dropper;
          Alcotest.test_case "lossless" `Quick test_lossless;
          Alcotest.test_case "bernoulli bytes" `Quick test_bernoulli_bytes_length_dependence;
          Alcotest.test_case "RED byte mode" `Quick test_red_byte_mode_prefers_small_packets;
          Alcotest.test_case "gilbert-elliott" `Quick test_gilbert_elliott_burstiness;
          Alcotest.test_case "gap-skip rate" `Quick
            test_gap_skip_drop_rate_matches_per_packet;
          Alcotest.test_case "gap-skip chi-squared" `Quick
            test_gap_skip_chi_squared;
          Alcotest.test_case "gap-skip degenerate p" `Quick
            test_gap_skip_p_zero_and_one;
          Alcotest.test_case "telemetry counters" `Quick
            test_loss_module_telemetry_counters;
        ] );
      ( "gap_sink",
        [
          Alcotest.test_case "loss-event aggregation" `Quick test_gap_sink_loss_event_aggregation;
          Alcotest.test_case "intervals" `Quick test_gap_sink_intervals;
          Alcotest.test_case "detects losses" `Quick test_gap_sink_detects_losses;
          Alcotest.test_case "contiguous clean" `Quick test_gap_sink_contiguous_no_loss;
          Alcotest.test_case "duplicate counts toward p'' only" `Quick test_duplicate_counts_toward_p2_only;
        ] );
      ("properties", qsuite);
    ]
