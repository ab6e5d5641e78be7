(* Tests for the api-lint scan (tools/api_lint): which lib/ exports it
   reports as dead or test-only, over small fixture trees modelled on
   the repository's modules. *)

let lib =
  [
    ("lib/net/dune", "(library\n (name ebrc_net))\n");
    ( "lib/net/flow_stats.mli",
      "(** Per-flow probe. *)\ntype t\n\nval create : rtt_hint:float -> t\n\
       val sent : t -> int\n(** Packets sent. *)\n\nval received : t -> int\n\
       val lost : t -> int\n" );
    ( "lib/net/flow_stats.ml",
      "type t = { mutable sent : int; mutable received : int; mutable lost : int }\n\
       let create ~rtt_hint:_ = { sent = 0; received = 0; lost = 0 }\n\
       let sent t = t.sent\nlet received t = t.received\nlet lost t = t.lost\n\
       let total t = sent t + received t + lost t\n" );
    ("lib/telemetry/dune", "(library\n (name ebrc_telemetry))\n");
    ("lib/telemetry/flight.mli", "val set_dir : string -> unit\nval last_dump : unit -> string option\n");
    ("lib/telemetry/stream.mli", "val active : unit -> bool\n");
    ("lib/telemetry/export.mli", "val finish : unit -> unit\n");
    ("lib/core/dune", "(library\n (name ebrc))\n");
    ( "lib/core/ebrc.ml",
      "module Flow_stats = Ebrc_net.Flow_stats\n\
       module Telemetry_flight = Ebrc_telemetry.Flight\n\
       module Telemetry_stream = Ebrc_telemetry.Stream\n\
       module Telemetry_export = Ebrc_telemetry.Export\n" );
  ]

(* The reported exports of [lib] plus [extra] files, as
   ["dead Module.name"] / ["test-only Module.name"]. *)
let report extra =
  List.map
    (fun f ->
      (match f.Api_lint.status with Dead -> "dead " | Test_only -> "test-only ")
      ^ Api_lint.qualified f)
    (Api_lint.analyse (lib @ extra))

let reported name extra = List.exists (String.ends_with ~suffix:(" " ^ name)) (report extra)

let check_reported what name expected extra =
  Alcotest.(check bool) what expected (reported name extra)

let test_unused_val_reported () =
  Alcotest.(check (list string))
    "every export unused"
    [
      "dead Export.finish"; "dead Flight.last_dump"; "dead Flight.set_dir";
      "dead Flow_stats.create"; "dead Flow_stats.lost"; "dead Flow_stats.received";
      "dead Flow_stats.sent"; "dead Stream.active";
    ]
    (report []);
  (* Uses inside the module's own implementation do not count. *)
  check_reported "own use" "Flow_stats.sent" true []

let test_common_name_is_not_a_use () =
  (* [sent] is a common name: a local binding, record fields and
     projections through the module path are not uses of the val. *)
  check_reported "bare name, field and projection" "Flow_stats.sent" true
    [
      ( "bin/main.ml",
        "type r = { sent : int }\nlet sent = 3\nlet f r = r.sent + sent\n\
         let g r = r.Ebrc.Flow_stats.sent\nlet h = { Ebrc.Flow_stats.sent = 1 }\n" );
    ]

let test_local_alias () =
  check_reported "alias use" "Flow_stats.sent" false
    [ ("bin/main.ml", "module FS = Ebrc.Flow_stats\nlet n fs = FS.sent fs\n") ];
  check_reported "library path" "Flow_stats.received" false
    [ ("bench/main.ml", "let n fs = Ebrc_net.Flow_stats.received fs\n") ];
  check_reported "sibling module" "Flow_stats.lost" false
    [ ("lib/net/link.ml", "let drops fs = Flow_stats.lost fs\n") ]

let test_umbrella_rename () =
  let uses =
    [
      ( "examples/demo.ml",
        "let () = Ebrc.Telemetry_flight.set_dir \".\"\n\
         module S = Ebrc.Telemetry_stream\nlet on = S.active ()\n\
         let () = Ebrc.Telemetry_export.finish ()\n" );
    ]
  in
  List.iter
    (fun name -> check_reported name name false uses)
    [ "Flight.set_dir"; "Stream.active"; "Export.finish" ];
  check_reported "untouched export" "Flight.last_dump" true uses

let test_open_and_local_open () =
  check_reported "open" "Flow_stats.sent" false
    [ ("bin/main.ml", "open Ebrc.Flow_stats\nlet n fs = sent fs\n") ];
  check_reported "let open" "Flow_stats.lost" false
    [ ("bin/main.ml", "let n fs =\n  let open Ebrc.Flow_stats in\n  lost fs\n") ];
  check_reported "local open" "Flow_stats.received" false
    [ ("bin/main.ml", "let n fs = Ebrc.Flow_stats.(received fs + 1)\n") ];
  (* A local open's scope ends with its parentheses. *)
  check_reported "after local open" "Flow_stats.lost" true
    [ ("bin/main.ml", "let n fs = Ebrc.Flow_stats.(received fs)\nlet lost = 0\nlet m = lost\n") ]

let test_test_only () =
  let extra =
    [
      ("test/test_net.ml", "module FS = Ebrc.Flow_stats\nlet () = ignore (FS.sent, FS.lost)\n");
      ("bin/main.ml", "let n fs = Ebrc.Flow_stats.lost fs\n");
    ]
  in
  Alcotest.(check bool) "sent is test-only" true
    (List.mem "test-only Flow_stats.sent" (report extra));
  check_reported "lost has a non-test caller" "Flow_stats.lost" false extra

let test_allowlist () =
  let findings = Api_lint.analyse lib in
  let allowlist =
    Api_lint.parse_allowlist
      "# comment\n\nFlow_stats.sent   counter read by tests\nFlow_stats.lost\nTcp_sender.cwnd  gone\n"
  in
  let errors = Api_lint.check ~allowlist findings in
  let mentions name = List.exists (fun e -> List.mem name (String.split_on_char ' ' e)) errors in
  Alcotest.(check bool) "allowlisted with a reason" false (mentions "Flow_stats.sent");
  Alcotest.(check bool) "no reason" true (mentions "Flow_stats.lost");
  Alcotest.(check bool) "stale entry" true (mentions "Tcp_sender.cwnd");
  Alcotest.(check bool) "unlisted" true (mentions "Flow_stats.received")

let () =
  Alcotest.run "api_lint"
    [
      ( "scan",
        [
          Alcotest.test_case "unused val reported" `Quick test_unused_val_reported;
          Alcotest.test_case "common name is not a use" `Quick test_common_name_is_not_a_use;
          Alcotest.test_case "local alias" `Quick test_local_alias;
          Alcotest.test_case "umbrella rename" `Quick test_umbrella_rename;
          Alcotest.test_case "open and local open" `Quick test_open_and_local_open;
          Alcotest.test_case "test-only" `Quick test_test_only;
          Alcotest.test_case "allowlist" `Quick test_allowlist;
        ] );
    ]
