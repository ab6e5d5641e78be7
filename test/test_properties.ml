(* Model-based and cross-implementation property tests: each component
   is driven by a random operation sequence and checked against an
   independent reference implementation or invariant. *)

module EQ = Ebrc.Event_queue
module QD = Ebrc.Queue_discipline
module LI = Ebrc.Loss_interval
module LH = Ebrc.Loss_history
module W = Ebrc.Weights
module F = Ebrc.Formula
module Prng = Ebrc.Prng

(* --------------- event queue vs sorted-list model ---------------- *)

(* Interleave pushes and pops; the popped sequence must match a
   reference model that keeps a stable-sorted list. *)
let prop_event_queue_model =
  QCheck.Test.make ~name:"event queue matches stable sorted-list model"
    ~count:200
    QCheck.(
      list_of_size Gen.(int_range 1 120)
        (pair (option (float_range 0.0 100.0)) unit))
    (fun ops ->
      let q = EQ.create () in
      (* model: list of (time, seq) kept stable-sorted by (time, seq) *)
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun (op, ()) ->
          match op with
          | Some time ->
              EQ.push q ~time !seq;
              model := (time, !seq) :: !model;
              incr seq
          | None -> (
              let expected =
                List.sort
                  (fun (t1, s1) (t2, s2) ->
                    if t1 <> t2 then compare t1 t2 else compare s1 s2)
                  !model
              in
              match (EQ.pop q, expected) with
              | None, [] -> ()
              | Some (t, v), (mt, mv) :: rest ->
                  if t <> mt || v <> mv then ok := false
                  else model := rest
              | Some _, [] | None, _ :: _ -> ok := false))
        ops;
      !ok)

(* --------------- loss interval vs reference model ---------------- *)

(* Reference estimator: keep the whole history in a list and compute the
   weighted average naively. *)
let reference_estimate weights history =
  (* history: newest first *)
  let l = Array.length weights in
  let n = min l (List.length history) in
  if n = 0 then None
  else begin
    let wsum = ref 0.0 and acc = ref 0.0 in
    List.iteri
      (fun i v ->
        if i < n then begin
          wsum := !wsum +. weights.(i);
          acc := !acc +. (weights.(i) *. v)
        end)
      history;
    Some (!acc /. !wsum)
  end

let prop_loss_interval_model =
  QCheck.Test.make ~name:"loss interval estimator matches naive reference"
    ~count:300
    QCheck.(
      pair (int_range 1 16)
        (list_of_size Gen.(int_range 1 60) (float_range 0.1 500.0)))
    (fun (l, intervals) ->
      let weights = W.tfrc l in
      let e = LI.create ~weights in
      let history = ref [] in
      List.for_all
        (fun v ->
          LI.record e v;
          history := v :: !history;
          match reference_estimate weights !history with
          | None -> false
          | Some expected ->
              abs_float (LI.estimate e -. expected)
              <= 1e-9 *. (1.0 +. expected))
        intervals)

(* ------------------- loss history vs reference ------------------- *)

(* Reference loss-event counting: given the set of received sequence
   numbers (in order) with their times and the aggregation rtt, count
   events the straightforward way. *)
let reference_events ~rtt arrivals =
  let expected = ref 0 in
  let events = ref 0 in
  let last_event = ref neg_infinity in
  List.iter
    (fun (now, seq) ->
      if seq > !expected then
        if now -. !last_event > rtt then begin
          incr events;
          last_event := now
        end;
      if seq >= !expected then expected := seq + 1)
    arrivals;
  !events

let prop_loss_history_event_count =
  QCheck.Test.make ~name:"loss history event count matches reference"
    ~count:300
    QCheck.(list_of_size Gen.(int_range 1 80) (int_range 0 3))
    (fun gaps ->
      (* Build an arrival sequence: each element advances seq by 1 + gap
         (gap > 0 means lost packets), at 10 ms per arrival. *)
      let arrivals = ref [] in
      let seq = ref 0 and t = ref 0.0 in
      List.iter
        (fun gap ->
          seq := !seq + gap;
          arrivals := (!t, !seq) :: !arrivals;
          incr seq;
          t := !t +. 0.01)
        gaps;
      let arrivals = List.rev !arrivals in
      let rtt = 0.025 in
      let h = LH.create ~l:8 ~rtt () in
      List.iter (fun (now, seq) -> LH.on_packet h ~now ~seq) arrivals;
      Ebrc.Loss_events.events (LH.loss_events h)
      = reference_events ~rtt arrivals)

(* ------------------------ RED invariants ------------------------- *)

let prop_red_never_overflows_and_counts =
  QCheck.Test.make ~name:"RED occupancy bounded; counters consistent"
    ~count:200
    QCheck.(
      pair (int_range 2 40)
        (list_of_size Gen.(int_range 1 300) (pair bool (float_range 0.0 1.0))))
    (fun (cap, ops) ->
      let q =
        QD.create ~capacity:cap
          (QD.Red
             {
               min_th = float_of_int cap /. 4.0;
               max_th = float_of_int cap /. 2.0;
               max_p = 0.1;
               wq = 0.1;
               byte_mode = false;
               mean_pktsize = 1000;
               gentle = false;
             })
      in
      let enq = ref 0 and dropped = ref 0 and departed = ref 0 in
      let ok = ref true in
      List.iteri
        (fun i (arrive, u) ->
          let now = float_of_int i *. 0.01 in
          if arrive then (
            match QD.offer q ~now ~u with
            | QD.Enqueue -> incr enq
            | QD.Drop -> incr dropped)
          else if QD.occupancy q > 0 then begin
            QD.departure q ~now;
            incr departed
          end;
          if QD.occupancy q > cap || QD.occupancy q < 0 then ok := false;
          if QD.occupancy q <> !enq - !departed then ok := false)
        ops;
      !ok && QD.drops q = !dropped && QD.enqueues q = !enq)

(* --------------------- formula consistency ----------------------- *)

let prop_formula_invert_any_rate =
  QCheck.Test.make ~name:"invert recovers p for any achievable rate"
    ~count:300
    QCheck.(
      pair
        (QCheck.oneofl [ F.Sqrt; F.Pftk_standard; F.Pftk_simplified ])
        (float_range 1e-4 0.6))
    (fun (kind, p) ->
      let f = F.create ~rtt:0.07 kind in
      let rate = F.eval f p in
      abs_float (F.invert f ~rate -. p) < 1e-7 *. (1.0 +. p))

let prop_with_rtt_scales_sqrt =
  QCheck.Test.make ~name:"SQRT scales as 1/rtt under with_rtt" ~count:200
    QCheck.(pair (float_range 0.01 2.0) (float_range 1e-4 0.5))
    (fun (rtt, p) ->
      let f1 = F.create ~rtt:1.0 F.Sqrt in
      let f2 = F.with_rtt f1 ~rtt in
      abs_float ((F.eval f2 p *. rtt) -. F.eval f1 p)
      <= 1e-9 *. F.eval f1 p)

(* ------------------ Palm identity on trajectories ---------------- *)

let prop_palm_identity =
  QCheck.Test.make
    ~name:"time-average throughput equals Palm ratio on any trajectory"
    ~count:100
    QCheck.(
      pair (int_range 1 8)
        (array_of_size Gen.(int_range 12 60) (float_range 0.5 200.0)))
    (fun (l, thetas) ->
      QCheck.assume (Array.length thetas > l + 2);
      let weights = W.tfrc l in
      let formula = F.create ~rtt:1.0 F.Sqrt in
      (* Direct simulation of the cycles: total packets / total time. *)
      let e = LI.create ~weights in
      for i = 0 to l - 1 do
        LI.record e thetas.(i)
      done;
      let packets = ref 0.0 and time = ref 0.0 in
      for i = l to Array.length thetas - 1 do
        let x = F.eval formula (1.0 /. LI.estimate e) in
        packets := !packets +. thetas.(i);
        time := !time +. (thetas.(i) /. x);
        LI.record e thetas.(i)
      done;
      let direct = !packets /. !time in
      let via_prop1 =
        Ebrc.Basic_control.palm_throughput ~formula ~weights thetas
      in
      abs_float (direct -. via_prop1) <= 1e-9 *. (1.0 +. direct))

(* ----------------------- trace invariants ------------------------ *)

let prop_trace_time_monotone =
  QCheck.Test.make ~name:"trace skeleton is time-monotone after decimation"
    ~count:200
    QCheck.(int_range 10 3000)
    (fun n ->
      let t = Ebrc.Trace.create ~capacity:32 () in
      for i = 0 to n - 1 do
        Ebrc.Trace.record t ~time:(float_of_int i) ~value:0.0
      done;
      let times = Ebrc.Trace.times t in
      let ok = ref (Array.length times > 0) in
      for i = 0 to Array.length times - 2 do
        if times.(i) >= times.(i + 1) then ok := false
      done;
      !ok)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_event_queue_model;
      prop_loss_interval_model;
      prop_loss_history_event_count;
      prop_red_never_overflows_and_counts;
      prop_formula_invert_any_rate;
      prop_with_rtt_scales_sqrt;
      prop_palm_identity;
      prop_trace_time_monotone;
    ]

let () = Alcotest.run "properties" [ ("model-based", qsuite) ]
