(* Edge-case coverage for surfaces not exercised elsewhere: formatter
   output, validation paths, small accessors, and report filtering. *)

let feq ?(eps = 1e-9) a b =
  Alcotest.(check bool)
    (Printf.sprintf "%.12g ~ %.12g" a b)
    true
    (abs_float (a -. b) <= eps *. (1.0 +. abs_float a +. abs_float b))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --------------------------- formatters ------------------------- *)

let test_welford_pp () =
  let w = Ebrc.Welford.create () in
  Ebrc.Welford.add w 1.0;
  Ebrc.Welford.add w 3.0;
  let s = Format.asprintf "%a" Ebrc.Welford.pp w in
  Alcotest.(check bool) "mentions n and mean" true
    (contains s "n=2" && contains s "mean=2")

let test_theorems_pp () =
  let s = Format.asprintf "%a" Ebrc.Theorems.pp_prediction Ebrc.Theorems.Conservative in
  Alcotest.(check string) "conservative" "conservative" s

let test_breakdown_pp () =
  let formula = Ebrc.Formula.create ~rtt:0.1 Ebrc.Formula.Pftk_standard in
  let m = { Ebrc.Breakdown.throughput = 10.0; p = 0.01; rtt = 0.1 } in
  let b = Ebrc.Breakdown.create ~ebrc:m ~tcp:m ~formula in
  let s = Format.asprintf "%a" Ebrc.Breakdown.pp b in
  Alcotest.(check bool) "has all five ratios" true
    (contains s "x/f(p,r)" && contains s "p'/p" && contains s "r'/r"
    && contains s "x'/f(p',r')" && contains s "x/x'")

let test_formula_names () =
  List.iter
    (fun (k, n) ->
      Alcotest.(check string) n n (Ebrc.Formula.name (Ebrc.Formula.create k)))
    [
      (Ebrc.Formula.Sqrt, "SQRT");
      (Ebrc.Formula.Pftk_standard, "PFTK-standard");
      (Ebrc.Formula.Pftk_simplified, "PFTK-simplified");
      (Ebrc.Formula.Aimd { alpha = 1.0; beta = 0.5 }, "AIMD");
    ]

let test_loss_process_names () =
  let rng = Ebrc.Prng.create ~seed:1 in
  let p = Ebrc.Loss_process.iid_exponential rng ~p:0.1 in
  Alcotest.(check bool) "name mentions family" true
    (contains (Ebrc.Loss_process.name p) "iid-exp")

(* ---------------------------- tables ----------------------------- *)

let test_table_notes_render () =
  let t = Ebrc.Table.create ~title:"t" ~header:[ "a" ] in
  let t = Ebrc.Table.add_row t [ "1" ] in
  let t = Ebrc.Table.add_note t "first" in
  let t = Ebrc.Table.add_note t "second" in
  let s = Ebrc.Table.to_string t in
  Alcotest.(check bool) "both notes" true
    (contains s "note: first" && contains s "note: second")

let test_table_save_csv () =
  let t = Ebrc.Table.create ~title:"t" ~header:[ "a"; "b" ] in
  let t = Ebrc.Table.add_row t [ "1"; "2" ] in
  let path = Filename.temp_file "ebrc_table" ".csv" in
  Ebrc.Table.save_csv t ~path;
  let ic = open_in path in
  let line1 = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header line" "a,b" line1

let test_report_filters_unknown_ids () =
  (* An unknown id fails the report like any failed figure: it raises,
     or in keep-going mode becomes a FAILED section next to the known
     ones. It is never silently dropped. *)
  let options =
    { Ebrc.Report.default_options with ids = [ "zzz"; "c4" ] }
  in
  (match Ebrc.Report.generate ~options () with
  | _ -> Alcotest.fail "an unknown id must fail the report"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "lists the valid ids" true
        (contains msg "valid ids: 1 2 3"));
  let doc, failures =
    Ebrc.Report.generate_result ~options:{ options with keep_going = true } ()
  in
  Alcotest.(check (list string)) "zzz failed" [ "zzz" ]
    (List.map (fun (f : Ebrc.Figures.failure) -> f.failed_id) failures);
  Alcotest.(check bool) "c4 included" true (contains doc "Figure c4");
  Alcotest.(check bool) "zzz FAILED section" true
    (contains doc "## Figure zzz — unknown id\n\n### **FAILED**")

(* --------------------------- validation -------------------------- *)

let raises_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_scenario_jitter_validation () =
  raises_invalid "jitter" (fun () ->
      Ebrc.Scenario.run
        { Ebrc.Scenario.default_config with reverse_jitter = 1.5 })

let test_probe_packet_size_validation () =
  let engine = Ebrc.Engine.create () in
  raises_invalid "packet size" (fun () ->
      Ebrc.Probe_source.create ~packet_size:0 ~engine ~flow:0 ~rate:10.0
        ~pacing:Ebrc.Probe_source.Cbr ())

let test_tfrc_sender_validation () =
  let engine = Ebrc.Engine.create () in
  let formula = Ebrc.Formula.create ~rtt:0.1 Ebrc.Formula.Sqrt in
  raises_invalid "max<=min" (fun () ->
      Ebrc.Tfrc_sender.create ~min_rate:10.0 ~max_rate:1.0 ~engine ~flow:0
        ~formula ());
  raises_invalid "initial rate" (fun () ->
      Ebrc.Tfrc_sender.create ~initial_rate:0.0 ~engine ~flow:0 ~formula ())

let test_exact_validation () =
  let formula = Ebrc.Formula.create Ebrc.Formula.Sqrt in
  raises_invalid "p<=0" (fun () ->
      Ebrc.Exact.normalized_throughput ~formula ~l:4 ~p:0.0 ~cv:0.9);
  raises_invalid "l<1" (fun () ->
      Ebrc.Exact.expect_over_estimator ~l:0 ~x0:1.0 ~a:1.0 Fun.id)

let test_chain_base_rtt () =
  feq (Ebrc.Scenario.base_rtt Ebrc.Scenario.chain_config) 0.06

(* ------------------------ small accessors ------------------------ *)

let test_flow_accessors () =
  let engine = Ebrc.Engine.create () in
  let formula = Ebrc.Formula.create ~rtt:0.1 Ebrc.Formula.Sqrt in
  let s = Ebrc.Tfrc_sender.create ~engine ~flow:7 ~formula () in
  Alcotest.(check int) "tfrc flow" 7 (Ebrc.Tfrc_sender.flow s);
  let a =
    Ebrc.Audio_source.create ~engine ~flow:3 ~period:0.02 ~formula ~rtt:0.1 ()
  in
  Alcotest.(check int) "audio flow" 3 (Ebrc.Audio_source.flow a);
  let p =
    Ebrc.Probe_source.create ~engine ~flow:9 ~rate:1.0
      ~pacing:Ebrc.Probe_source.Cbr ()
  in
  Alcotest.(check int) "probe flow" 9 (Ebrc.Probe_source.flow p)

let test_version_string () =
  Alcotest.(check bool) "semver-ish" true
    (String.length Ebrc.version >= 5 && String.contains Ebrc.version '.')

let test_figures_describe_matches_ids () =
  let ids = Ebrc.Figures.ids () in
  let described = List.map fst (Ebrc.Figures.describe ()) in
  Alcotest.(check (list string)) "same order and content" ids described

let () =
  Alcotest.run "misc"
    [
      ( "formatters",
        [
          Alcotest.test_case "welford pp" `Quick test_welford_pp;
          Alcotest.test_case "theorems pp" `Quick test_theorems_pp;
          Alcotest.test_case "breakdown pp" `Quick test_breakdown_pp;
          Alcotest.test_case "formula names" `Quick test_formula_names;
          Alcotest.test_case "loss process names" `Quick test_loss_process_names;
        ] );
      ( "tables",
        [
          Alcotest.test_case "notes render" `Quick test_table_notes_render;
          Alcotest.test_case "save csv" `Quick test_table_save_csv;
          Alcotest.test_case "report id filter" `Quick test_report_filters_unknown_ids;
        ] );
      ( "validation",
        [
          Alcotest.test_case "scenario jitter" `Quick test_scenario_jitter_validation;
          Alcotest.test_case "probe packet size" `Quick test_probe_packet_size_validation;
          Alcotest.test_case "tfrc sender" `Quick test_tfrc_sender_validation;
          Alcotest.test_case "exact" `Quick test_exact_validation;
          Alcotest.test_case "chain base rtt" `Quick test_chain_base_rtt;
        ] );
      ( "accessors",
        [
          Alcotest.test_case "flow ids" `Quick test_flow_accessors;
          Alcotest.test_case "version" `Quick test_version_string;
          Alcotest.test_case "registry describe" `Quick test_figures_describe_matches_ids;
        ] );
    ]
