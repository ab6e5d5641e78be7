(* Tests for the observability toolkit library: the JSON reader, the
   BENCH_*.json locator's dual filename shapes and timestamp ordering,
   and the two views of bench records: the gate and the trend. *)

module J = Ebrc_obs.Json
module BR = Ebrc_obs.Bench_records

(* ------------------------------ json ------------------------------ *)

let ok s =
  match J.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

let test_json_values () =
  Alcotest.(check bool) "null" true (ok "null" = J.Null);
  Alcotest.(check bool) "bool" true (ok " true " = J.Bool true);
  Alcotest.(check bool) "int" true (ok "42" = J.Int 42);
  Alcotest.(check bool) "neg float" true (ok "-2.5e3" = J.Num (-2500.0));
  Alcotest.(check bool) "string escapes" true
    (ok "\"a\\\"b\\n\"" = J.Str "a\"b\n");
  Alcotest.(check bool) "\\u escapes: below 0x80 a byte, above '?'" true
    (ok "\"\\u0041\\u00e9\"" = J.Str "A?");
  Alcotest.(check bool) "array" true
    (ok "[1, 2.0]" = J.List [ J.Int 1; J.Num 2.0 ]);
  match ok "{\"k\": {\"n\": 7}}" |> J.member "k" with
  | Some inner -> (
      match J.member "n" inner with
      | Some v -> Alcotest.(check (option int)) "nested" (Some 7) (J.to_int v)
      | None -> Alcotest.fail "missing n")
  | None -> Alcotest.fail "missing k"

let test_json_errors () =
  let bad s =
    match J.parse s with
    | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "\"unterminated";
  bad "1 2" (* trailing content *);
  bad "\"\\q\"" (* unknown escape *)

let test_json_accessors () =
  Alcotest.(check (option int)) "to_int rejects fraction" None
    (J.to_int (J.Num 1.5));
  Alcotest.(check bool) "null to_float is nan" true
    (match J.to_float J.Null with Some f -> Float.is_nan f | None -> false);
  Alcotest.(check (option string)) "to_string" (Some "x")
    (J.to_string (J.Str "x"));
  Alcotest.(check string) "print escapes strings" "\"a\\\"b\\\\c\\n\\u0001\""
    (J.print (J.Str "a\"b\\c\n\001"))

(* -------------------------- bench records ------------------------- *)

let test_timestamp_of_filename () =
  let check name expect =
    Alcotest.(check (option string)) name expect (BR.timestamp_of_filename name)
  in
  check "BENCH_2026-08-05.json" (Some "2026-08-05T000000Z");
  check "BENCH_2026-08-05T141802Z.json" (Some "2026-08-05T141802Z");
  check "BENCH_custom.json" None;
  check "BENCH_2026-8-5.json" None;
  check "other.json" None

let with_temp_dir f =
  let base = Filename.temp_file "ebrc_obs_test" "" in
  Sys.remove base;
  let dir = base ^ ".d" in
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let write dir name content =
  let oc = open_out (Filename.concat dir name) in
  output_string oc content;
  close_out oc

let test_list_ordered () =
  with_temp_dir @@ fun dir ->
  List.iter
    (fun n -> write dir n "{}")
    [
      "BENCH_2026-08-05.json";
      "BENCH_2026-08-05T141802Z.json";
      "BENCH_2026-08-04T230000Z.json";
      "BENCH_custom.json";
      "NOTBENCH_2026-08-05.json";
    ];
  let files, warnings = BR.list_ordered ~dir in
  Alcotest.(check (list string))
    "embedded-timestamp order, unstamped last"
    [
      "BENCH_2026-08-04T230000Z.json";
      "BENCH_2026-08-05.json";
      "BENCH_2026-08-05T141802Z.json";
      "BENCH_custom.json";
    ]
    files;
  Alcotest.(check int) "one unstamped warning" 1 (List.length warnings)

let test_load_all_drops_bad_records () =
  with_temp_dir @@ fun dir ->
  write dir "BENCH_2026-08-01T000001Z.json" "{\"a\": 1}";
  write dir "BENCH_2026-08-02T000001Z.json" "not json at all";
  let records, warnings = BR.load_all ~dir in
  Alcotest.(check int) "one parsable record" 1 (List.length records);
  Alcotest.(check bool) "unparsable warned" true (List.length warnings >= 1);
  match records with
  | [ r ] ->
      Alcotest.(check string) "file" "BENCH_2026-08-01T000001Z.json" r.BR.file;
      Alcotest.(check (option int)) "payload parsed" (Some 1)
        (Option.bind (J.member "a" r.BR.json) J.to_int)
  | _ -> Alcotest.fail "unreachable"

(* ------------------------------ gate ------------------------------ *)

let bench_json ?(ns = []) ?(ctr = []) () =
  let nums kvs = J.Obj (List.map (fun (k, v) -> (k, J.Num v)) kvs) in
  J.Obj
    [
      ("microbench_ns_per_run", nums ns);
      ("telemetry_summary", J.Obj [ ("counters", nums ctr) ]);
    ]

(* The severities of [gate]'s findings on one subject. *)
let judge ?(warn_only = false) ~baseline ~current subject =
  List.filter_map
    (fun f -> if f.BR.subject = subject then Some f.BR.severity else None)
    (BR.gate ~warn_only ~baseline ~current)

let severity =
  Alcotest.testable
    (fun ppf s ->
      Format.pp_print_string ppf
        (match s with BR.Fail -> "Fail" | Warn -> "Warn" | Info -> "Info"))
    ( = )

let test_gate_timings () =
  let baseline = bench_json ~ns:[ ("big", 2e6); ("tiny", 1e3) ] () in
  let current = bench_json ~ns:[ ("big", 2.5e6); ("tiny", 1e4) ] () in
  Alcotest.(check (list severity)) ">= 1 ms at 1.25x fails" [ BR.Fail ]
    (judge ~baseline ~current "big");
  Alcotest.(check (list severity)) "sub-ms at 10x is reported only"
    [ BR.Info ] (judge ~baseline ~current "tiny")

let test_gate_counter_drift () =
  let baseline = bench_json ~ctr:[ ("born", 0.0); ("nudged", 1000.0) ] () in
  let current = bench_json ~ctr:[ ("born", 3.0); ("nudged", 1001.0) ] () in
  Alcotest.(check (list severity)) "0 -> 3 fails" [ BR.Fail ]
    (judge ~baseline ~current "born");
  Alcotest.(check (list severity)) "1000 -> 1001 fails" [ BR.Fail ]
    (judge ~baseline ~current "nudged");
  Alcotest.(check (list severity)) "warn-only demotes drift" [ BR.Warn ]
    (judge ~warn_only:true ~baseline ~current "nudged");
  Alcotest.(check (list severity)) "equal counters pass" []
    (judge ~baseline ~current:baseline "nudged")

let test_gate_identity () =
  List.iter
    (fun (block, field) ->
      let record ok = J.Obj [ (block, J.Obj [ (field, J.Bool ok) ]) ] in
      let subject = block ^ "." ^ field in
      Alcotest.(check (list severity)) (subject ^ " true passes") [ BR.Info ]
        (judge ~baseline:(record true) ~current:(record true) subject);
      Alcotest.(check (list severity)) (subject ^ " false fails warn-only")
        [ BR.Fail ]
        (judge ~warn_only:true ~baseline:(record true)
           ~current:(record false) subject))
    [
      ("stream_ablation", "bit_identical");
      ("flows1m", "bit_identical");
      ("sweep_service", "store_identical");
    ]

let test_gate_stream_off () =
  let record off_ms =
    J.Obj
      [
        ("telemetry_summary", J.Obj [ ("disabled_ms", J.Num 5.0) ]);
        ("stream_ablation", J.Obj [ ("scenario_off_ms", J.Num off_ms) ]);
      ]
  in
  let subject = "stream_ablation.scenario_off_ms" in
  let baseline = record 5.0 in
  Alcotest.(check (list severity)) "within 20% passes" [ BR.Info ]
    (judge ~baseline ~current:(record 5.5) subject);
  Alcotest.(check (list severity)) "1.3x fails" [ BR.Fail ]
    (judge ~baseline ~current:(record 6.5) subject);
  Alcotest.(check (list severity)) "warn-only demotes it" [ BR.Warn ]
    (judge ~warn_only:true ~baseline ~current:(record 6.5) subject)

let test_gate_missing_blocks () =
  let baseline =
    J.Obj
      [
        ("chaos_soak", J.Obj []);
        ("flows1m", J.Obj [ ("bit_identical", J.Bool true) ]);
      ]
  in
  let current = J.Obj [] in
  Alcotest.(check (list severity)) "block gone from current is reported"
    [ BR.Info ] (judge ~baseline ~current "chaos_soak");
  Alcotest.(check (list severity)) "its gate is skipped" []
    (judge ~baseline ~current "flows1m.bit_identical");
  Alcotest.(check int) "blocks missing from both: no finding" 0
    (List.length (BR.gate ~warn_only:false ~baseline:current ~current));
  (* A retired bench (here the deleted comprehensive-ode microbench
     and its ode_frontier block) never fails the newer record. *)
  let baseline =
    J.Obj
      [
        ( "microbench_ns_per_run",
          J.Obj [ ("comprehensive-ode", J.Num 2e6); ("kept", J.Num 2e6) ] );
        ("ode_frontier", J.Obj [ ("points", J.List []) ]);
      ]
  in
  let current =
    J.Obj [ ("microbench_ns_per_run", J.Obj [ ("kept", J.Num 2e6) ]) ]
  in
  Alcotest.(check (list severity)) "retired block is Info" [ BR.Info ]
    (judge ~baseline ~current "ode_frontier");
  Alcotest.(check (list severity)) "retired microbench is not judged" []
    (judge ~baseline ~current "comprehensive-ode");
  (* A field gone from a block both records keep is reported too. *)
  let sweep fields = J.Obj [ ("parallel_figure_sweep", J.Obj fields) ] in
  let kept = ("speedup", J.Num 1.8) in
  Alcotest.(check (list severity)) "retired field is Info" [ BR.Info ]
    (judge
       ~baseline:(sweep [ kept; ("warm_lookup_seconds", J.Num 0.01) ])
       ~current:(sweep [ kept ])
       "parallel_figure_sweep.warm_lookup_seconds")

(* ------------------------------ trend ----------------------------- *)

let synthetic_record i ns_kvs ctr_kvs =
  {
    BR.file = Printf.sprintf "BENCH_2026-08-0%dT000000Z.json" (i + 1);
    json = bench_json ~ns:ns_kvs ~ctr:ctr_kvs ();
  }

let test_trend_flags () =
  let records =
    [
      synthetic_record 0
        [ ("slow", 2e6); ("fast", 2e6); ("tiny", 1e3) ]
        [ ("stable", 100.0); ("drift", 100.0) ];
      synthetic_record 1
        [ ("slow", 2.5e6); ("fast", 1.5e6); ("tiny", 5e3) ]
        [ ("stable", 100.0); ("drift", 110.0) ];
      synthetic_record 2
        [ ("slow", 3e6); ("fast", 1e6); ("tiny", 1e4) ]
        [ ("stable", 100.0); ("drift", 120.0) ];
    ]
  in
  let series = BR.analyze records in
  let find key =
    match List.find_opt (fun s -> s.BR.key = key) series with
    | Some s -> s
    | None -> Alcotest.failf "series %s missing" key
  in
  let slow = find "slow" in
  Alcotest.(check int) "n records" 3 slow.BR.n;
  Alcotest.(check bool) "slow regressed" true slow.BR.regressed;
  Alcotest.(check bool) "positive slope" true (slow.BR.slope > 0.0);
  Alcotest.(check (float 1e-6)) "first" 2e6 slow.BR.first;
  Alcotest.(check (float 1e-6)) "last" 3e6 slow.BR.last;
  Alcotest.(check (float 1e-6)) "best" 2e6 slow.BR.best;
  let fast = find "fast" in
  Alcotest.(check bool) "fast improved" true fast.BR.improved;
  Alcotest.(check bool) "fast not regressed" false fast.BR.regressed;
  (* A 10x swing below the 1 ms noise floor stays unflagged. *)
  Alcotest.(check bool) "sub-ms never regresses" false
    (find "tiny").BR.regressed;
  Alcotest.(check bool) "stable counter unchanged" false
    (find "stable").BR.changed;
  let drift = find "drift" in
  Alcotest.(check bool) "drifting counter flagged" true drift.BR.changed;
  Alcotest.(check bool) "counter group" true (drift.BR.group = BR.Counter);
  (* The table carries the flag. *)
  let files = List.map (fun r -> r.BR.file) records in
  let table = BR.render ~files series in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  Alcotest.(check bool) "table flags regression" true
    (contains ~sub:"REGRESSED" table)

let test_trend_single_record () =
  (* One record: nothing to compare, nothing flagged. *)
  let series = BR.analyze [ synthetic_record 0 [ ("a", 5e6) ] [] ] in
  match series with
  | [ s ] ->
      Alcotest.(check int) "n" 1 s.BR.n;
      Alcotest.(check bool) "not regressed" false s.BR.regressed;
      Alcotest.(check bool) "not improved" false s.BR.improved
  | l -> Alcotest.failf "expected 1 series, got %d" (List.length l)

(* The checked knob decoder: unset is None, empty is [?empty] or goes
   to the parser, and a rejected value names the variable. *)
let test_env_knob () =
  let module E = Ebrc_obs.Env in
  Alcotest.(check (option int)) "unset" None
    (E.knob ~empty:5 "EBRC_TEST_ENV_KNOB_UNSET" E.int);
  let var = "EBRC_TEST_ENV_KNOB" in
  Unix.putenv var "";
  Alcotest.(check (option int)) "empty with ~empty" (Some 5)
    (E.knob ~empty:5 var E.int);
  Alcotest.check_raises "empty without ~empty"
    (Invalid_argument (var ^ ": expected an integer, got \"\""))
    (fun () -> ignore (E.knob var E.int));
  Unix.putenv var "12";
  Alcotest.(check (option int)) "int" (Some 12) (E.knob var (E.int ~min:12));
  Alcotest.check_raises "below min"
    (Invalid_argument (var ^ ": expected an integer >= 13, got \"12\""))
    (fun () -> ignore (E.knob var (E.int ~min:13)));
  Alcotest.(check (option (float 0.0))) "seconds" (Some 12.0)
    (E.knob var E.seconds);
  List.iter
    (fun v ->
      Alcotest.(check bool) ("seconds rejects " ^ v) true
        (Result.is_error (E.seconds v)))
    [ "-1"; "inf"; "nan"; "1s"; "" ];
  Unix.putenv var ""

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "values" `Quick test_json_values;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ("env", [ Alcotest.test_case "knob decoder" `Quick test_env_knob ]);
      ( "bench_records",
        [
          Alcotest.test_case "filename shapes" `Quick
            test_timestamp_of_filename;
          Alcotest.test_case "timestamp ordering" `Quick test_list_ordered;
          Alcotest.test_case "load_all drops bad" `Quick
            test_load_all_drops_bad_records;
        ] );
      ( "gate",
        [
          Alcotest.test_case "timings" `Quick test_gate_timings;
          Alcotest.test_case "counter drift" `Quick test_gate_counter_drift;
          Alcotest.test_case "identity gates" `Quick test_gate_identity;
          Alcotest.test_case "stream-off timing" `Quick test_gate_stream_off;
          Alcotest.test_case "missing blocks" `Quick test_gate_missing_blocks;
        ] );
      ( "trend",
        [
          Alcotest.test_case "flags" `Quick test_trend_flags;
          Alcotest.test_case "single record" `Quick test_trend_single_record;
        ] );
    ]
