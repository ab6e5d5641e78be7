(* Tests for the non-adaptive probe sources and the Claim-2 audio
   source. *)

module E = Ebrc.Engine
module P = Ebrc.Packet
module PS = Ebrc.Probe_source
module AS = Ebrc.Audio_source
module LM = Ebrc.Loss_module
module F = Ebrc.Formula
module Prng = Ebrc.Prng

let feq ?(eps = 1e-9) a b =
  Alcotest.(check bool)
    (Printf.sprintf "%.12g ~ %.12g" a b)
    true
    (abs_float (a -. b) <= eps *. (1.0 +. abs_float a +. abs_float b))

(* --------------------------- probes ---------------------------- *)

let run_probe ~pacing ~rate ~until =
  let engine = E.create () in
  let src = PS.create ~engine ~flow:0 ~rate ~pacing () in
  let times = ref [] in
  PS.set_transmit src (fun _ -> times := E.now engine :: !times);
  ignore (E.schedule engine ~at:0.0 (fun () -> PS.start src));
  ignore (E.run ~until engine);
  (src, List.rev !times)

let test_cbr_exact_spacing () =
  let _, times = run_probe ~pacing:PS.Cbr ~rate:10.0 ~until:1.05 in
  Alcotest.(check int) "11 packets in 1.05s at 10pps" 11 (List.length times);
  List.iteri (fun i t -> feq t (float_of_int i /. 10.0)) times

let test_poisson_rate () =
  let rng = Prng.create ~seed:2 in
  let src, times =
    run_probe ~pacing:(PS.Poisson rng) ~rate:100.0 ~until:100.0
  in
  let n = List.length times in
  Alcotest.(check bool)
    (Printf.sprintf "%d packets ~ 10000" n)
    true
    (abs (n - 10_000) < 300);
  Alcotest.(check int) "sent counter" n (PS.sent src)

let test_poisson_gaps_exponential () =
  let rng = Prng.create ~seed:3 in
  let _, times = run_probe ~pacing:(PS.Poisson rng) ~rate:50.0 ~until:200.0 in
  let arr = Array.of_list times in
  let gaps =
    Array.init (Array.length arr - 1) (fun i -> arr.(i + 1) -. arr.(i))
  in
  let cv = Ebrc.Descriptive.coefficient_of_variation gaps in
  Alcotest.(check bool)
    (Printf.sprintf "gap cv %.3f ~ 1" cv)
    true
    (abs_float (cv -. 1.0) < 0.05)

let test_probe_stop () =
  let engine = E.create () in
  let src = PS.create ~engine ~flow:0 ~rate:10.0 ~pacing:PS.Cbr () in
  PS.set_transmit src (fun _ -> ());
  ignore (E.schedule engine ~at:0.0 (fun () -> PS.start src));
  ignore (E.schedule engine ~at:1.0 (fun () -> PS.stop src));
  ignore (E.run ~until:10.0 engine);
  Alcotest.(check bool) "stopped" true (PS.sent src <= 12)

let test_probe_invalid () =
  let engine = E.create () in
  match PS.create ~engine ~flow:0 ~rate:0.0 ~pacing:PS.Cbr () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------ audio source ------------------------- *)

(* Wire an audio source through a dropper with a small delay; the
   receiver wire calls back into the source, as in the scenario. *)
let run_audio ?(comprehensive = false) ?(l = 4) ~kind ~drop_p ~until ~seed () =
  let engine = E.create () in
  let rng = Prng.create ~seed in
  let formula = F.create ~rtt:0.04 kind in
  let src =
    AS.create ~comprehensive ~l ~engine ~flow:0 ~period:0.02 ~formula
      ~rtt:0.04 ()
  in
  let dropper = LM.bernoulli rng ~p:drop_p in
  AS.set_transmit src (fun pkt ->
      if LM.process dropper pkt then
        ignore
          (E.schedule_after engine ~delay:0.02 (fun () ->
               AS.on_receiver_packet src ~seq:pkt.P.seq)));
  ignore (E.schedule engine ~at:0.0 (fun () -> AS.start src));
  ignore (E.run ~until engine);
  src

let test_audio_fixed_packet_rate () =
  (* The emission clock never changes: exactly until/period packets. *)
  let src = run_audio ~kind:F.Sqrt ~drop_p:0.1 ~until:10.0 ~seed:4 () in
  (* emissions at t = 0, 0.02, ..., 10.0 inclusive *)
  Alcotest.(check int) "501 packets in 10s at 50pps" 501 (AS.sent src)

let test_audio_rate_adapts_to_losses () =
  let light = run_audio ~kind:F.Sqrt ~drop_p:0.01 ~until:60.0 ~seed:5 () in
  let heavy = run_audio ~kind:F.Sqrt ~drop_p:0.2 ~until:60.0 ~seed:5 () in
  Alcotest.(check bool)
    (Printf.sprintf "heavy loss rate %.2f < light %.2f" (AS.rate_units heavy)
       (AS.rate_units light))
    true
    (AS.rate_units heavy < AS.rate_units light)

let test_audio_rate_tracks_formula () =
  let drop_p = 0.05 in
  let src = run_audio ~kind:F.Sqrt ~drop_p ~until:200.0 ~seed:6 () in
  let expected = F.eval (F.create ~rtt:0.04 F.Sqrt) drop_p in
  let samples = AS.rate_samples src in
  let mean =
    Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean rate %.1f within 25%% of f(p) = %.1f" mean expected)
    true
    (abs_float (mean -. expected) < 0.25 *. expected)

let test_audio_history_sees_events () =
  let src = run_audio ~kind:F.Pftk_simplified ~drop_p:0.1 ~until:60.0 ~seed:7 () in
  Alcotest.(check bool) "many loss events" true
    (Ebrc.Loss_events.events (Ebrc.Loss_history.loss_events (AS.history src))
     > 50)

let test_audio_packet_length_varies () =
  (* The adaptation is in packet length: rate samples vary, emission
     period does not. *)
  let src = run_audio ~kind:F.Pftk_simplified ~drop_p:0.1 ~until:60.0 ~seed:8 () in
  let samples = AS.rate_samples src in
  Alcotest.(check bool) "rate varies" true
    (Ebrc.Descriptive.variance samples > 0.0)

let test_audio_invalid () =
  let engine = E.create () in
  match
    AS.create ~engine ~flow:0 ~period:0.0
      ~formula:(F.create ~rtt:0.1 F.Sqrt) ~rtt:0.1 ()
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ---------------------- audio scenario ------------------------- *)

let test_audio_scenario_claim2_sqrt_conservative () =
  let r =
    Ebrc.Audio_scenario.run
      {
        Ebrc.Audio_scenario.default_config with
        drop_p = 0.15;
        formula_kind = F.Sqrt;
        duration = 800.0;
        warmup = 80.0;
      }
  in
  Alcotest.(check bool)
    (Printf.sprintf "SQRT normalized %.3f <= ~1" r.normalized_throughput)
    true
    (r.normalized_throughput <= 1.03)

let test_audio_scenario_claim2_pftk_heavy_nonconservative () =
  let r =
    Ebrc.Audio_scenario.run
      {
        Ebrc.Audio_scenario.default_config with
        drop_p = 0.2;
        formula_kind = F.Pftk_simplified;
        duration = 800.0;
        warmup = 80.0;
      }
  in
  Alcotest.(check bool)
    (Printf.sprintf "PFTK heavy normalized %.3f > 1" r.normalized_throughput)
    true
    (r.normalized_throughput > 1.0)

let test_audio_scenario_p_observed_tracks_drop_p () =
  let r =
    Ebrc.Audio_scenario.run
      {
        Ebrc.Audio_scenario.default_config with
        drop_p = 0.1;
        duration = 600.0;
        warmup = 60.0;
      }
  in
  (* Bernoulli drops within one RTT may merge into one event, so the
     observed loss-event rate is at or slightly below the drop rate. *)
  Alcotest.(check bool)
    (Printf.sprintf "p_observed %.4f in (0.05, 0.11)" r.p_observed)
    true
    (r.p_observed > 0.05 && r.p_observed < 0.11)

let () =
  Alcotest.run "sources"
    [
      ( "probe",
        [
          Alcotest.test_case "cbr spacing" `Quick test_cbr_exact_spacing;
          Alcotest.test_case "poisson rate" `Quick test_poisson_rate;
          Alcotest.test_case "poisson gaps" `Quick test_poisson_gaps_exponential;
          Alcotest.test_case "stop" `Quick test_probe_stop;
          Alcotest.test_case "invalid" `Quick test_probe_invalid;
        ] );
      ( "audio",
        [
          Alcotest.test_case "fixed packet rate" `Quick test_audio_fixed_packet_rate;
          Alcotest.test_case "adapts to losses" `Quick test_audio_rate_adapts_to_losses;
          Alcotest.test_case "tracks formula" `Quick test_audio_rate_tracks_formula;
          Alcotest.test_case "history events" `Quick test_audio_history_sees_events;
          Alcotest.test_case "length varies" `Quick test_audio_packet_length_varies;
          Alcotest.test_case "invalid" `Quick test_audio_invalid;
        ] );
      ( "claim2",
        [
          Alcotest.test_case "SQRT conservative" `Quick test_audio_scenario_claim2_sqrt_conservative;
          Alcotest.test_case "PFTK heavy non-conservative" `Quick test_audio_scenario_claim2_pftk_heavy_nonconservative;
          Alcotest.test_case "p tracks drop rate" `Quick test_audio_scenario_p_observed_tracks_drop_p;
        ] );
    ]
