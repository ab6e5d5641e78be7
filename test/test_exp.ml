(* Tests for the experiment harness: table rendering, scenario
   mechanics, path profiles and the figure registry. *)

module T = Ebrc.Table
module S = Ebrc.Scenario
module A = Ebrc.Audio_scenario
module P = Ebrc.Paths
module Fig = Ebrc.Figures
module RC = Ebrc.Result_cache
module Work = Ebrc.Work

let feq ?(eps = 1e-9) a b =
  Alcotest.(check bool)
    (Printf.sprintf "%.12g ~ %.12g" a b)
    true
    (abs_float (a -. b) <= eps *. (1.0 +. abs_float a +. abs_float b))

(* ---------------------------- table ----------------------------- *)

let test_table_render () =
  let t = T.create ~title:"demo" ~header:[ "a"; "bb" ] in
  let t = T.add_row t [ "1"; "2" ] in
  let t = T.add_row t [ "333"; "4" ] in
  let s = T.to_string t in
  Alcotest.(check bool) "title present" true
    (String.length s > 0
    && String.sub s 0 7 = "== demo");
  Alcotest.(check bool) "has rows" true
    (String.length (T.to_csv t) > 0)

let test_table_column_mismatch () =
  let t = T.create ~title:"x" ~header:[ "a" ] in
  match T.add_row t [ "1"; "2" ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_table_csv_escaping () =
  let t = T.create ~title:"x" ~header:[ "a,b"; "c" ] in
  let t = T.add_row t [ "v\"w"; "plain" ] in
  let csv = T.to_csv t in
  Alcotest.(check bool) "quoted comma" true
    (String.length csv > 0 && csv.[0] = '"')

let test_cell_float () =
  Alcotest.(check string) "nan" "nan" (T.cell_float nan);
  Alcotest.(check bool) "number renders" true
    (String.length (T.cell_float 3.14159) > 0)

let test_table_csv_roundtrip_columns () =
  let t = T.create ~title:"t" ~header:[ "x"; "y"; "z" ] in
  let t = T.add_row t [ "1"; "2"; "3" ] in
  let lines = String.split_on_char '\n' (T.to_csv t) in
  List.iter
    (fun line ->
      if line <> "" then
        Alcotest.(check int) "3 columns"
          3
          (List.length (String.split_on_char ',' line)))
    lines

(* --------------------------- scenario --------------------------- *)

let quick_cfg =
  {
    S.default_config with
    duration = 40.0;
    warmup = 10.0;
    n_tfrc = 2;
    n_tcp = 2;
    seed = 7;
  }

let result = lazy (S.run quick_cfg)

let test_scenario_counts () =
  let r = Lazy.force result in
  Alcotest.(check int) "tfrc flows" 2 (Array.length r.S.tfrc);
  Alcotest.(check int) "tcp flows" 2 (Array.length r.S.tcp);
  Alcotest.(check bool) "probe present" true (r.S.probe <> None)

let test_scenario_utilization () =
  let r = Lazy.force result in
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.2f in (0.5, 1.02)" r.S.link_utilization)
    true
    (r.S.link_utilization > 0.5 && r.S.link_utilization < 1.02)

let test_scenario_throughputs_positive () =
  let r = Lazy.force result in
  Array.iter
    (fun (m : S.flow_measure) ->
      Alcotest.(check bool) "tfrc throughput > 0" true (m.throughput_pps > 0.0))
    r.S.tfrc;
  Array.iter
    (fun (m : S.flow_measure) ->
      Alcotest.(check bool) "tcp throughput > 0" true (m.throughput_pps > 0.0))
    r.S.tcp

let test_scenario_capacity_conservation () =
  let r = Lazy.force result in
  let cap_pps =
    quick_cfg.S.bottleneck_bps /. (8.0 *. float_of_int quick_cfg.S.packet_size)
  in
  let total =
    S.mean_throughput r.S.tfrc *. 2.0 +. (S.mean_throughput r.S.tcp *. 2.0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "sum %.0f <= capacity %.0f" total cap_pps)
    true
    (total <= cap_pps *. 1.02)

let test_scenario_determinism () =
  let r1 = S.run { quick_cfg with duration = 20.0 } in
  let r2 = S.run { quick_cfg with duration = 20.0 } in
  feq (S.mean_throughput r1.S.tfrc) (S.mean_throughput r2.S.tfrc);
  feq (S.mean_throughput r1.S.tcp) (S.mean_throughput r2.S.tcp);
  Alcotest.(check int) "same drops" r1.S.queue_drops r2.S.queue_drops

let test_scenario_seed_sensitivity () =
  let r1 = S.run { quick_cfg with duration = 20.0 } in
  let r2 = S.run { quick_cfg with duration = 20.0; seed = 8 } in
  Alcotest.(check bool) "different seeds differ" true
    (S.mean_throughput r1.S.tfrc <> S.mean_throughput r2.S.tfrc)

let test_scenario_pooled_loss_rate () =
  let r = Lazy.force result in
  let p = S.pooled_loss_rate r.S.tfrc in
  Alcotest.(check bool)
    (Printf.sprintf "pooled p %.5f in (0, 0.2)" p)
    true
    (p > 0.0 && p < 0.2)

let test_scenario_invalid_duration () =
  match S.run { quick_cfg with duration = 5.0; warmup = 10.0 } with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_bdp_and_rtt_helpers () =
  feq (S.base_rtt quick_cfg) 0.05;
  (* 15 Mb/s * 0.05 s / 8000 bits = 93.75 packets *)
  feq (S.bdp_packets quick_cfg) 93.75

(* Golden fixed-seed oracle: the serialized result and the cache key
   of five configs covering DropTail, RED, the hybrid fluid background,
   fault injection and the two-router chain. Any change to dispatch order, RNG consumption,
   the result codec or the key codec moves a digest. The values are
   platform-pinned (x86-64, IEEE doubles); a deliberate simulator or
   codec change must update them in the same commit. The key digest is
   MD5 of the config's Codec bytes (its manifest task line). *)
let test_scenario_golden_digests () =
  let base =
    { S.default_config with
      duration = 20.0; warmup = 10.0; n_tfrc = 2; n_tcp = 2; seed = 7 }
  in
  let red = { base with S.queue = S.Red_auto { capacity = 0 } } in
  let cases =
    [
      ( "droptail 100",
        { base with S.queue = S.Drop_tail { capacity = 100 } },
        "9bea3b84849ac96d97a0a49ad4766ec2",
        "df5ca06a76a467a06c1a1c674a6b4ffe" );
      ( "red auto",
        red,
        "dc6c30727255ddbe9d4ccf358379b058",
        "579932c8e65cb8d0d287e08f6a0f1a54" );
      ( "red + fluid background",
        { red with S.background = Some (S.default_background ~flows:10_000) },
        "67af8411c73b965f4ba602579d1cec62",
        "d0d401f3ae11240513f9825a0c12bb4e" );
      ( "robust blackout",
        { S.robust_blackout_config with S.duration = 60.0; warmup = 15.0 },
        "3138539c3562b5d4ac417bacbd9bce5a",
        "82c18448c52168a8fabea5f91e87ee75" );
      ( "droptail chain + cross",
        { base with
          S.queue = S.Drop_tail { capacity = 100 };
          second_hop =
            Some
              { S.hop_bps = 10e6; hop_delay = 0.01; hop_capacity = 60;
                cross_fraction = 0.3 } },
        "dc44092ab874ef39b5c9cfd347d02428",
        "53fcb410dd41e994a4450920ffd06383" );
    ]
  in
  List.iter
    (fun (name, cfg, result_digest, key_digest) ->
      Alcotest.(check string)
        (name ^ ": result digest")
        result_digest
        (Digest.to_hex (Digest.string (RC.serialize_result (S.run cfg))));
      Alcotest.(check string)
        (name ^ ": key digest")
        key_digest (RC.digest_of_config cfg))
    cases

(* ------------------------- result cache ------------------------- *)

let cache_dir =
  Filename.concat (Filename.get_temp_dir_name ()) "ebrc_cache_test"

(* Every cache test starts from a clean slate — no stats, no stale
   disk records — and leaves the global cache state as it found it
   (no store). *)
let with_clean_cache f =
  if Sys.file_exists cache_dir && Sys.is_directory cache_dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat cache_dir f))
      (Sys.readdir cache_dir);
  Ebrc.Telemetry.reset ();
  Fun.protect
    ~finally:(fun () ->
      RC.set_dir None;
      Ebrc.Telemetry.reset ())
    f

let cache_cfg = { quick_cfg with duration = 20.0; seed = 21 }

let test_cache_digest_separates_configs () =
  let d1 = RC.digest_of_config cache_cfg in
  let d2 = RC.digest_of_config { cache_cfg with seed = 22 } in
  let d3 = RC.digest_of_config { cache_cfg with duration = 20.5 } in
  Alcotest.(check bool) "seed changes digest" true (d1 <> d2);
  Alcotest.(check bool) "duration changes digest" true (d1 <> d3);
  Alcotest.(check string) "digest is stable" d1 (RC.digest_of_config cache_cfg)

let record_path cfg = Filename.concat cache_dir (RC.digest_of_config cfg ^ ".json")

let test_cache_disk_roundtrip () =
  with_clean_cache (fun () ->
      RC.set_dir (Some cache_dir);
      let first = RC.serialize_result (RC.run cache_cfg) in
      Alcotest.(check bool) "record written" true
        (Sys.file_exists (record_path cache_cfg));
      Alcotest.(check bool) "miss = direct" true
        (String.equal (RC.serialize_result (S.run cache_cfg)) first);
      let from_disk = RC.serialize_result (RC.run cache_cfg) in
      Alcotest.(check bool) "disk hit byte-identical" true
        (String.equal first from_disk);
      let s = RC.stats () in
      Alcotest.(check int) "one store" 1 s.RC.stores;
      Alcotest.(check int) "one disk hit" 1 s.RC.disk_hits;
      Alcotest.(check int) "one miss" 1 s.RC.misses)

let test_cache_corrupt_record_detected () =
  with_clean_cache (fun () ->
      RC.set_dir (Some cache_dir);
      let good = RC.serialize_result (RC.run cache_cfg) in
      let path = record_path cache_cfg in
      let oc = open_out path in
      output_string oc "{ not json ";
      close_out oc;
      Ebrc.Telemetry.reset ();
      let recomputed = RC.serialize_result (RC.run cache_cfg) in
      Alcotest.(check bool) "recompute matches" true
        (String.equal good recomputed);
      let s = RC.stats () in
      Alcotest.(check int) "corruption counted" 1 s.RC.corrupt;
      Alcotest.(check int) "fell back to a real run" 1 s.RC.misses;
      (* The bad record was overwritten by the fresh store. *)
      ignore (RC.run cache_cfg);
      Alcotest.(check int) "repaired record readable" 1
        (RC.stats ()).RC.disk_hits)

(* With no store, [run] is [Scenario.run]: nothing is counted. *)
let test_cache_disabled_bypasses () =
  with_clean_cache (fun () ->
      RC.set_dir None;
      ignore (RC.run cache_cfg);
      ignore (RC.run cache_cfg);
      let s = RC.stats () in
      Alcotest.(check int) "no disk hits" 0 s.RC.disk_hits;
      Alcotest.(check int) "no misses counted" 0 s.RC.misses;
      Alcotest.(check int) "no stores" 0 s.RC.stores)

(* [f ()]'s result and what it wrote to stderr. *)
let capture_stderr f =
  let path = Filename.temp_file "ebrc_stderr" ".txt" in
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let v =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      f
  in
  let ic = open_in_bin path in
  let err = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  (v, err)

let test_cache_store_failure_degrades () =
  (* An unwritable cache dir must not abort the run: each store error
     is counted, a warning is printed once, and every run returns its
     freshly computed result. *)
  with_clean_cache (fun () ->
      RC.set_dir (Some "/dev/null/ebrc_nope");
      let (first, second), err =
        capture_stderr (fun () ->
            let first = RC.serialize_result (RC.run cache_cfg) in
            (first, RC.serialize_result (RC.run cache_cfg)))
      in
      Alcotest.(check bool) "recomputed byte-identically" true
        (String.equal first second);
      let s = RC.stats () in
      Alcotest.(check int) "two store errors" 2 s.RC.store_errors;
      Alcotest.(check int) "no store claimed" 0 s.RC.stores;
      Alcotest.(check int) "two misses" 2 s.RC.misses;
      Alcotest.(check int) "one warning" 1
        (List.length
           (List.filter
              (fun l -> String.starts_with ~prefix:"ebrc: warning:" l)
              (String.split_on_char '\n' err))))

let test_cache_robust_roundtrip () =
  (* A faulted config round-trips through the disk store: the record
     carries tfrc_halvings and fault_stats, and the faulted and
     fault-free configs get distinct digests. *)
  let robust =
    { Ebrc.Scenario.robust_blackout_config with
      Ebrc.Scenario.duration = 60.0;
      warmup = 15.0 }
  in
  let clean = { robust with S.faults = None } in
  Alcotest.(check bool) "faults change the digest" true
    (RC.digest_of_config robust <> RC.digest_of_config clean);
  with_clean_cache (fun () ->
      RC.set_dir (Some cache_dir);
      let first = RC.serialize_result (RC.run robust) in
      let from_disk = RC.serialize_result (RC.run robust) in
      Alcotest.(check bool) "robust disk hit byte-identical" true
        (String.equal first from_disk);
      Alcotest.(check int) "served from disk" 1 (RC.stats ()).RC.disk_hits)

(* ---------------------- hybrid packet/fluid ---------------------- *)

let test_hybrid_cache_roundtrip () =
  (* fluid_stats round-trips byte-exactly through the disk store, and
     the background is part of the key. *)
  let cfg =
    { cache_cfg with
      S.background = Some (S.default_background ~flows:10_000) }
  in
  Alcotest.(check bool) "background changes the digest" true
    (RC.digest_of_config cfg
    <> RC.digest_of_config { cfg with S.background = None });
  with_clean_cache (fun () ->
      RC.set_dir (Some cache_dir);
      let first = RC.serialize_result (RC.run cfg) in
      Alcotest.(check bool) "result carries fluid stats" true
        ((RC.run cfg).S.fluid_stats <> None);
      let from_disk = RC.serialize_result (RC.run cfg) in
      Alcotest.(check bool) "hybrid disk hit byte-identical" true
        (String.equal first from_disk);
      Alcotest.(check int) "both repeats served from disk" 2
        (RC.stats ()).RC.disk_hits)

(* The hybrid validation gate (CI-enforced version of figure h1): the
   same background population simulated packet-exact (n extra TCP
   flows) and as an n-flow fluid must agree on what the TFRC
   foreground experiences. The fluid is a mean-field model and n = 8
   is its worst case, so the loss-event-rate tolerance is a factor,
   not a percentage; normalized throughput (the paper's headline
   metric) is much tighter because TFRC's formula response compensates
   for the p difference. *)
let test_hybrid_matches_packet_background () =
  let base =
    { S.default_config with
      S.with_probe = false; duration = 120.0; warmup = 30.0 }
  in
  let n = 8 in
  let pkt = S.run { base with S.n_tcp = base.S.n_tcp + n } in
  let fl =
    S.run { base with S.background = Some (S.default_background ~flows:n) }
  in
  let formula =
    Ebrc.Formula.create ~rtt:(S.base_rtt base) base.S.tfrc_formula_kind
  in
  let norm (r : S.result) =
    let p = S.pooled_loss_rate r.S.tfrc in
    S.mean_throughput r.S.tfrc
    /. Ebrc.Formula.eval
         (Ebrc.Formula.with_rtt formula ~rtt:(S.mean_rtt r.S.tfrc))
         p
  in
  let p_ratio = S.pooled_loss_rate fl.S.tfrc /. S.pooled_loss_rate pkt.S.tfrc
  and x_ratio = norm fl /. norm pkt in
  Alcotest.(check bool)
    (Printf.sprintf "loss-event rate ratio %.3f in [0.4, 2.5]" p_ratio)
    true
    (p_ratio > 0.4 && p_ratio < 2.5);
  Alcotest.(check bool)
    (Printf.sprintf "normalized throughput ratio %.3f in [0.85, 1.15]"
       x_ratio)
    true
    (x_ratio > 0.85 && x_ratio < 1.15)

(* Satellite e2e: in the many-sources limit the fluid background is an
   exogenous one-state congestion process for the foreground, so
   Eq. (13)'s limit loss-event rate — for any rate profile — is the
   state's drop probability, i.e. the fluid's analytic equilibrium.
   The RED ramp couples the classes (packet foreground is dropped on
   the same avg-occupancy ramp the fluid solves), so the TFRC
   foreground's measured loss-event rate must approach that limit.
   Seeds pinned; capacity scales with N per the many-sources
   normalization. *)
let test_hybrid_many_sources_limit () =
  let n = 100_000 in
  let bg = S.default_background ~flows:n in
  let cfg =
    { S.default_config with
      S.seed = 11;
      with_probe = false;
      n_tfrc = 2;
      n_tcp = 0;
      bottleneck_bps = 5.6e5 *. float_of_int n;
      duration = 60.0;
      warmup = 20.0;
      background = Some bg }
  in
  let r = S.run cfg in
  let eq = Ebrc.Fluid.equilibrium (S.fluid_config cfg bg) in
  let cp =
    [| { Ebrc.Many_sources.p_i = eq.Ebrc.Fluid.eq_p; pi_i = 1.0 } |]
  in
  let p_limit =
    Ebrc.Many_sources.limit_loss_event_rate cp
      ~rates:(Ebrc.Many_sources.poisson_profile cp)
  in
  let p_sim = S.pooled_loss_rate r.S.tfrc in
  (* RED's uniform drop spreading (p_a = p_b / (1 - count.p_b)) makes
     inter-drop gaps uniform on [1, 1/p_b], so the realized per-packet
     drop rate the foreground sees is 2.p_b / (1 + p_b), not p_b. The
     fluid's mean-field ramp — and hence the Eq. (13) limit — is in
     p_b units; convert before comparing. *)
  let p_pred = 2.0 *. p_limit /. (1.0 +. p_limit) in
  Alcotest.(check bool)
    (Printf.sprintf "one-state limit is the equilibrium (%.4f)" p_limit)
    true
    (Float.abs (p_limit -. eq.Ebrc.Fluid.eq_p) < 1e-12);
  Alcotest.(check bool)
    (Printf.sprintf "simulated %.4f vs spread-adjusted limit %.4f" p_sim
       p_pred)
    true
    (p_sim > 0.6 *. p_pred && p_sim < 1.67 *. p_pred)

let test_figures_byte_identical_with_cache () =
  (* Figure output is byte-identical from a cold store, a warm store
     and no store. Fig 17 is the cheapest DES-backed runner. *)
  let render () =
    String.concat "\n" (List.map T.to_csv (Fig.run_one ~quick:true "17"))
  in
  with_clean_cache (fun () ->
      RC.set_dir (Some cache_dir);
      let cold = render () in
      let misses = (RC.stats ()).RC.misses in
      let warm = render () in
      let s = RC.stats () in
      Alcotest.(check bool) "warm store pays no misses" true
        (misses > 0 && s.RC.misses = misses && s.RC.disk_hits = misses);
      RC.set_dir None;
      let uncached = render () in
      Alcotest.(check bool) "cold = warm" true (String.equal cold warm);
      Alcotest.(check bool) "cached = uncached" true
        (String.equal cold uncached))

(* ------------------------ audio scenario ------------------------ *)

let test_audio_scenario_smoke () =
  let r =
    A.run { A.default_config with duration = 200.0; warmup = 20.0 }
  in
  Alcotest.(check bool) "events happened" true (r.A.events > 10);
  Alcotest.(check bool) "p positive" true (r.A.p_observed > 0.0);
  Alcotest.(check bool) "normalized finite" true
    (Float.is_finite r.A.normalized_throughput)

(* ---------------------------- paths ----------------------------- *)

let test_path_catalog_complete () =
  let names = List.map (fun p -> p.P.name) (P.all_profiles ~pkt:1000) in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " present") true (List.mem n names))
    [ "INRIA"; "KTH"; "UMASS"; "UMELB"; "DropTail 64"; "DropTail 100"; "RED" ]

let test_path_to_config () =
  let cfg = P.to_config P.inria ~n:4 in
  Alcotest.(check int) "n_tfrc" 4 cfg.S.n_tfrc;
  Alcotest.(check int) "n_tcp" 4 cfg.S.n_tcp;
  feq cfg.S.bottleneck_bps P.inria.P.bottleneck_bps

let test_lab_red_geometry () =
  (* U = 62500 B / 1000 B = 62.5 packets; min 3/20 U, max 5/4 U. *)
  let p = P.lab_red_params ~pkt:1000 in
  feq p.Ebrc.Queue_discipline.min_th 9.375;
  feq p.Ebrc.Queue_discipline.max_th 78.125

let test_table_one () =
  let t = P.table_one () in
  Alcotest.(check bool) "renders" true (String.length (T.to_string t) > 100)

(* --------------------------- figures ---------------------------- *)

let test_registry_complete () =
  let ids = Fig.ids () in
  List.iter
    (fun id ->
      Alcotest.(check bool) ("figure " ^ id) true (List.mem id ids))
    [ "1"; "2"; "3"; "4"; "5"; "6"; "7"; "8"; "9"; "10"; "11"; "12"; "13";
      "14"; "15"; "16"; "17"; "18"; "19"; "t1"; "c3"; "c4"; "a1"; "a2";
      "a3"; "a4"; "a5"; "a6"; "a7"; "a8"; "a9"; "a10"; "a11"; "a12"; "a13";
      "r1"; "r2"; "r3" ]

let test_registry_unknown () =
  match Fig.run_one ~quick:true "nope" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let has needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_run_one_result_unknown () =
  match Fig.run ~quick:true [ "nope" ] with
  | [ (_, Error f) ] ->
      Alcotest.(check string) "failure id" "nope" f.Fig.failed_id;
      Alcotest.(check bool) "message lists valid ids" true
        (has "valid" f.Fig.message && has "t1" f.Fig.message)
  | _ -> Alcotest.fail "expected one Error"

let one_cell v = T.add_row (T.create ~title:"ok" ~header:[ "v" ]) [ v ]

let test_run_runner_result_failure () =
  (* One failing task leaf fails exactly the figure that declared it,
     and the failure names the leaf; a sibling figure in the same
     batch still renders. *)
  let boom : Fig.runner =
   fun ~quick:_ ->
    Work.map
      (fun (a, b) -> [ one_cell a; one_cell b ])
      (Work.both
         (Work.task (fun () -> "1"))
         (Work.task (fun () -> failwith "injected crash")))
  in
  let ok : Fig.runner =
   fun ~quick:_ -> Work.map (fun v -> [ one_cell v ]) (Work.task (fun () -> "2"))
  in
  match Fig.run_batch ~jobs:2 ~quick:true [ ("boom", boom); ("ok", ok) ] with
  | [ ("boom", Error f); ("ok", Ok [ _ ]) ] ->
      Alcotest.(check string) "failure id" "boom" f.Fig.failed_id;
      Alcotest.(check bool)
        ("message names the leaf: " ^ f.Fig.message)
        true
        (has "task #2 of figure boom failed" f.Fig.message
        && has "injected crash" f.Fig.message)
  | _ -> Alcotest.fail "expected boom to fail and ok to render"

let test_run_all_keep_going_collects () =
  let ok : Fig.runner =
   fun ~quick:_ -> Work.map (fun v -> [ one_cell v ]) (Work.task (fun () -> "1"))
  in
  match Fig.run_batch ~quick:true [ ("ok", ok) ] with
  | [ ("ok", Ok tables) ] ->
      Alcotest.(check int) "tables pass through" 1 (List.length tables)
  | _ -> Alcotest.fail "good runner must succeed"

let test_batch_dedups_scenarios () =
  (* Figures 5/7/8/9 declare the same bottleneck sweep and 10/11/12
     overlapping path profiles: one batch runs each distinct config
     once, so a cold store sees exactly one miss per config and no
     hits. *)
  let ids = [ "5"; "7"; "8"; "9"; "10"; "11"; "12" ] in
  let distinct =
    List.concat_map
      (fun id -> Work.configs ((Option.get (Fig.find id)) ~quick:true))
      ids
    |> List.map Ebrc.Codec.encode |> List.sort_uniq String.compare
    |> List.length
  in
  with_clean_cache (fun () ->
      RC.set_dir (Some cache_dir);
      List.iter
        (fun (id, r) ->
          Alcotest.(check bool) ("figure " ^ id ^ " rendered") true
            (Result.is_ok r))
        (Fig.run ~jobs:2 ~quick:true ids);
      let st = RC.stats () in
      Alcotest.(check int) "misses = distinct configs" distinct st.RC.misses;
      Alcotest.(check int) "no disk hits" 0 st.RC.disk_hits)

let test_analytic_figures_run () =
  (* The cheap, purely analytic figures should run here; the DES sweeps
     are covered by the integration suite and the bench harness. *)
  List.iter
    (fun id ->
      let tables = Fig.run_one ~quick:true id in
      Alcotest.(check bool) ("figure " ^ id ^ " non-empty") true
        (List.length tables > 0
        && List.for_all (fun t -> String.length (T.to_string t) > 0) tables))
    [ "1"; "2"; "t1"; "c3"; "c4"; "a2"; "a4"; "a11" ]

(* Every check's quick-mode evidence, pinned: defining an experiment
   once for a figure and a check must not move either. *)
let validate_quick_evidence =
  [
    ("prop4-ratio", "measured r = 1.00260");
    ("f1-conditions", "convexity classifier on x in [1.5, 1000]");
    ("thm1-conservative", "worst normalized = 0.978");
    ("claim1-l-ordering", "L=2: 0.186 < L=8: 0.745 < L=16: 0.876");
    ("claim1-p-ordering", "p=0.02: 0.928 > p=0.3: 0.463");
    ("sqrt-invariance", "exact: 0.925614 vs 0.925614");
    ("claim2-crossover", "SQRT: 0.981 <= 1 < PFTK: 1.060");
    ("claim3-ordering", "p' = 0.00385 < p = 0.00721 < p'' = 0.01350");
    ("claim3-bottleneck", "p' = 0.0041, p = 0.0043, p'' = 0.0033 (50% slack)");
    ("claim4-closed-form", "analytic 1.7778, simulated 1.7819");
    ("prop2-comprehensive", "comprehensive 0.928 >= basic 0.874");
    ("exact-vs-mc", "exact 0.7758 vs MC 0.7749");
    ("iv-b-sublinear", "slope ratio (2nd/1st half) = 0.725 < 1");
    ("competition-collapse", "competing 1.002 < isolated 1.778");
    ("feller-ordering", "E0[X] = 2.67 >= x_bar = 2.51");
  ]

let test_validate_all_checks () =
  (* All checks as one batch, no store so both runs compute every
     leaf: every check passes, with the same verdicts and evidence at
     1 and 4 domains. *)
  let module V = Ebrc.Validate in
  let verdicts outcomes =
    List.map (fun (o : V.outcome) -> (o.check.id, o.passed, o.evidence))
      outcomes
  in
  with_clean_cache (fun () ->
      let j1 = V.run ~jobs:1 ~quick:true V.checks in
      let j4 = V.run ~jobs:4 ~quick:true V.checks in
      List.iter
        (fun (id, passed, evidence) ->
          Alcotest.(check bool) (id ^ ": " ^ evidence) true passed)
        (verdicts j1);
      Alcotest.(check bool) "all passed" true (V.all_passed j1);
      Alcotest.(check (list (triple string bool string)))
        "jobs=1 = jobs=4" (verdicts j1) (verdicts j4);
      Alcotest.(check (list (pair string string)))
        "evidence unchanged" validate_quick_evidence
        (List.map (fun (id, _, e) -> (id, e)) (verdicts j1)))

let test_validate_cheap_checks () =
  (* The six cheapest checks as a batch of their own: a subset of
     [checks] passes with the same evidence as in the full batch. *)
  let module V = Ebrc.Validate in
  let ids =
    [ "prop4-ratio"; "f1-conditions"; "sqrt-invariance";
      "claim4-closed-form"; "competition-collapse"; "claim3-ordering" ]
  in
  let cheap =
    List.map (fun id -> List.find (fun (c : V.check) -> c.id = id) V.checks) ids
  in
  List.iter
    (fun (o : V.outcome) ->
      Alcotest.(check bool) (o.check.id ^ ": " ^ o.evidence) true o.passed;
      Alcotest.(check string) (o.check.id ^ " evidence")
        (List.assoc o.check.id validate_quick_evidence) o.evidence)
    (V.run ~jobs:2 ~quick:true cheap)

let test_validate_table_renders () =
  let module V = Ebrc.Validate in
  let f1 = List.find (fun (c : V.check) -> c.id = "f1-conditions") V.checks in
  let outcomes = V.run ~quick:true [ f1 ] in
  let t = V.to_table outcomes in
  Alcotest.(check bool) "renders" true (String.length (T.to_string t) > 50);
  Alcotest.(check string) "no wall-clock column" "check,verdict,evidence"
    (List.hd (String.split_on_char '\n' (T.to_csv t)));
  Alcotest.(check bool) "all passed" true (V.all_passed outcomes)

let test_validate_raising_check () =
  (* A raising leaf and a raising projection each fail only their own
     check. *)
  let module V = Ebrc.Validate in
  let f1 = List.find (fun (c : V.check) -> c.id = "f1-conditions") V.checks in
  let boom =
    { V.id = "boom"; claim = "leaf raises";
      run = (fun ~quick:_ -> Work.task (fun () -> failwith "boom")) }
  in
  let bad_projection =
    { V.id = "bad-projection"; claim = "projection raises";
      run =
        (fun ~quick:_ ->
          Work.map (fun () -> invalid_arg "projection") (Work.task ignore)) }
  in
  match V.run ~jobs:2 ~quick:true [ boom; f1; bad_projection ] with
  | [ b; f; p ] ->
      Alcotest.(check (pair bool string)) "leaf FAIL"
        (false, "raised Failure(\"boom\")") (b.passed, b.evidence);
      Alcotest.(check bool) "sibling passes" true f.passed;
      Alcotest.(check (pair bool string)) "projection FAIL"
        (false, "raised Invalid_argument(\"projection\")")
        (p.passed, p.evidence);
      Alcotest.(check bool) "not all passed" false (V.all_passed [ b; f; p ])
  | _ -> Alcotest.fail "one outcome per check"

let test_mc_figures_values_sane () =
  (* The Monte-Carlo-only figures run fast in quick mode; check every
     numeric cell of the normalized-throughput tables parses and lies
     in a sane range. *)
  List.iter
    (fun id ->
      let tables = Fig.run_one ~quick:true id in
      Alcotest.(check bool) (id ^ " non-empty") true (List.length tables > 0);
      List.iter
        (fun t ->
          let csv = T.to_csv t in
          let lines = String.split_on_char '\n' csv in
          match lines with
          | [] -> Alcotest.fail "empty csv"
          | _header :: rows ->
              List.iter
                (fun row ->
                  if row <> "" then
                    List.iter
                      (fun cell ->
                        match float_of_string_opt cell with
                        | Some v ->
                            Alcotest.(check bool)
                              (Printf.sprintf "%s: %g finite, sane" id v)
                              true
                              (Float.is_finite v && v > -1e9 && v < 1e9)
                        | None -> () (* label column *))
                      (String.split_on_char ',' row))
                rows)
        tables)
    [ "3"; "4"; "a1"; "a5"; "a8"; "a13" ]

let test_fig2_ratio_note () =
  (* Figure 2 must report the paper's deviation ratio 1.0026. *)
  let tables = Fig.run_one ~quick:true "2" in
  let text = String.concat "\n" (List.map T.to_string tables) in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "ratio 1.0026 reported" true
    (contains text "1.0026")

let () =
  Alcotest.run "exp"
    [
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "column mismatch" `Quick test_table_column_mismatch;
          Alcotest.test_case "csv escaping" `Quick test_table_csv_escaping;
          Alcotest.test_case "cell float" `Quick test_cell_float;
          Alcotest.test_case "csv columns" `Quick test_table_csv_roundtrip_columns;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "counts" `Quick test_scenario_counts;
          Alcotest.test_case "utilization" `Quick test_scenario_utilization;
          Alcotest.test_case "throughputs positive" `Quick test_scenario_throughputs_positive;
          Alcotest.test_case "capacity conservation" `Quick test_scenario_capacity_conservation;
          Alcotest.test_case "determinism" `Quick test_scenario_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_scenario_seed_sensitivity;
          Alcotest.test_case "pooled loss rate" `Quick test_scenario_pooled_loss_rate;
          Alcotest.test_case "invalid duration" `Quick test_scenario_invalid_duration;
          Alcotest.test_case "bdp/rtt helpers" `Quick test_bdp_and_rtt_helpers;
          Alcotest.test_case "golden digests" `Quick
            test_scenario_golden_digests;
        ] );
      ( "result_cache",
        [
          Alcotest.test_case "digest separates configs" `Quick
            test_cache_digest_separates_configs;
          Alcotest.test_case "disk roundtrip" `Quick test_cache_disk_roundtrip;
          Alcotest.test_case "corrupt record detected" `Quick
            test_cache_corrupt_record_detected;
          Alcotest.test_case "store failure degrades" `Quick
            test_cache_store_failure_degrades;
          Alcotest.test_case "robust config roundtrip" `Quick
            test_cache_robust_roundtrip;
          Alcotest.test_case "disabled bypasses" `Quick
            test_cache_disabled_bypasses;
          Alcotest.test_case "figures byte-identical" `Quick
            test_figures_byte_identical_with_cache;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "cache roundtrip" `Quick
            test_hybrid_cache_roundtrip;
          Alcotest.test_case "matches packet background" `Quick
            test_hybrid_matches_packet_background;
          Alcotest.test_case "many-sources limit" `Quick
            test_hybrid_many_sources_limit;
        ] );
      ( "audio_scenario",
        [ Alcotest.test_case "smoke" `Quick test_audio_scenario_smoke ] );
      ( "paths",
        [
          Alcotest.test_case "catalog" `Quick test_path_catalog_complete;
          Alcotest.test_case "to_config" `Quick test_path_to_config;
          Alcotest.test_case "lab RED geometry" `Quick test_lab_red_geometry;
          Alcotest.test_case "table one" `Quick test_table_one;
        ] );
      ( "figures",
        [
          Alcotest.test_case "registry" `Quick test_registry_complete;
          Alcotest.test_case "unknown id" `Quick test_registry_unknown;
          Alcotest.test_case "unknown id (keep-going)" `Quick
            test_run_one_result_unknown;
          Alcotest.test_case "failing runner (keep-going)" `Quick
            test_run_runner_result_failure;
          Alcotest.test_case "good runner passes through" `Quick
            test_run_all_keep_going_collects;
          Alcotest.test_case "batch dedups scenarios" `Quick
            test_batch_dedups_scenarios;
          Alcotest.test_case "analytic figures" `Quick test_analytic_figures_run;
          Alcotest.test_case "fig2 ratio" `Quick test_fig2_ratio_note;
          Alcotest.test_case "validate cheap checks" `Quick test_validate_cheap_checks;
          Alcotest.test_case "validate table" `Quick test_validate_table_renders;
          Alcotest.test_case "validate all checks" `Quick test_validate_all_checks;
          Alcotest.test_case "validate raising check" `Quick
            test_validate_raising_check;
          Alcotest.test_case "MC figures sane" `Quick test_mc_figures_values_sane;
        ] );
    ]
