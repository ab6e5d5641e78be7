(* Tests for the chaos layer: the fault-injecting I/O shim's
   zero-overhead-when-off and seeded-determinism contracts, store
   publication converging to byte-identical records under injected
   faults, the scrubber's quarantine partition property (QCheck), and
   the flight recorder's structured failure attributes. *)

module Chaos = Ebrc_chaos.Io_fault
module Manifest = Ebrc_serve.Manifest
module Scenario = Ebrc.Scenario
module Rc = Ebrc.Result_cache
module Flight = Ebrc.Telemetry_flight

let tmp_dir =
  let counter = ref 0 in
  fun name ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ebrc-test-chaos-%d-%s-%d" (Unix.getpid ()) name
           !counter)
    in
    let rec rm_rf p =
      match Unix.lstat p with
      | exception Unix.Unix_error _ -> ()
      | { Unix.st_kind = Unix.S_DIR; _ } ->
          Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
          (try Unix.rmdir p with Unix.Unix_error _ -> ())
      | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    in
    rm_rf d;
    Unix.mkdir d 0o755;
    d

(* Every test that arms the shim must disarm it on the way out, even
   on failure — chaos state is process-global. *)
let with_chaos seed f =
  Chaos.set_seed (Some seed);
  Fun.protect ~finally:(fun () -> Chaos.set_seed None) f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let has_sub hay needle = find_sub hay needle <> None

(* ------------------------- shim off = inert ----------------------- *)

let test_chaos_off_inert () =
  Chaos.set_seed None;
  Alcotest.(check bool) "disabled" false (Chaos.enabled ());
  Alcotest.(check (option int)) "no seed" None (Chaos.seed ());
  let dir = tmp_dir "off" in
  let path = Filename.concat dir "f" in
  (* The guards are no-ops and write is output_string, byte for byte. *)
  Chaos.guard_open path;
  Chaos.guard_rename path;
  let oc = open_out_bin path in
  Chaos.write oc "payload bytes";
  Chaos.fsync oc;
  close_out oc;
  Alcotest.(check string) "write is output_string" "payload bytes"
    (read_file path);
  Alcotest.(check string) "maim is identity" "abc" (Chaos.maim "abc");
  let skew = abs_float (Chaos.now () -. Unix.gettimeofday ()) in
  Alcotest.(check bool) "now is gettimeofday" true (skew < 1.0);
  let s = Chaos.stats () in
  Alcotest.(check int) "no eio" 0 s.Chaos.eio;
  Alcotest.(check int) "no enospc" 0 s.Chaos.enospc;
  Alcotest.(check int) "no torn writes" 0 s.Chaos.torn_writes;
  Alcotest.(check int) "no lost fsyncs" 0 s.Chaos.fsync_lost;
  Alcotest.(check int) "no clock skews" 0 s.Chaos.clock_skews

(* --------------------- seeded fault determinism -------------------- *)

(* Drive a fixed operation sequence and record which ops faulted (and
   how, via the exception message). The same seed must reproduce the
   exact trace and fault tallies. *)
let fault_trace seed =
  with_chaos seed (fun () ->
      let dir = tmp_dir "trace" in
      (* Classify faults by kind, not message — messages embed the
         (run-varying) temp path. *)
      let probe f =
        match f () with
        | () -> "-"
        | exception Sys_error m ->
            if has_sub m "ENOSPC" then "enospc"
            else if has_sub m "torn" then "torn"
            else "eio"
      in
      let trace =
        List.init 120 (fun i ->
            let p = Filename.concat dir (string_of_int i) in
            let opened = probe (fun () -> Chaos.guard_open p) in
            let renamed = probe (fun () -> Chaos.guard_rename p) in
            let wrote =
              probe (fun () ->
                  let oc = open_out_bin p in
                  Fun.protect
                    ~finally:(fun () -> close_out_noerr oc)
                    (fun () ->
                      Chaos.write oc "0123456789abcdef";
                      Chaos.fsync oc))
            in
            String.concat "|" [ opened; renamed; wrote; Chaos.maim "0123456789" ])
      in
      (trace, Chaos.stats ()))

let test_chaos_seeded_determinism () =
  let t1, s1 = fault_trace 42 in
  let t2, s2 = fault_trace 42 in
  Alcotest.(check (list string)) "same seed, same fault trace" t1 t2;
  Alcotest.(check bool) "same seed, same stats" true (s1 = s2);
  Alcotest.(check bool) "faults actually injected" true
    (s1.Chaos.eio + s1.Chaos.enospc + s1.Chaos.torn_writes > 0);
  let t3, _ = fault_trace 43 in
  Alcotest.(check bool) "different seed, different trace" true (t1 <> t3)

(* ---------------- store publication under chaos -------------------- *)

(* Publication through the faulty shim must converge to a record
   byte-identical to a fault-free store: store failures are swallowed
   (warn-once), publication is atomic, and retries are idempotent. *)
let test_store_converges_under_chaos () =
  let cfg =
    { Scenario.default_config with seed = 3; duration = 2.0; warmup = 0.5 }
  in
  let r = Scenario.run cfg in
  let clean = tmp_dir "clean" in
  Rc.store_to ~dir:clean cfg r;
  let faulty = tmp_dir "faulty" in
  with_chaos 1234 (fun () ->
      let attempts = ref 0 in
      while (not (Rc.published ~dir:faulty cfg)) && !attempts < 500 do
        incr attempts;
        Rc.store_to ~dir:faulty cfg r
      done);
  Alcotest.(check bool) "published despite faults" true
    (Rc.published ~dir:faulty cfg);
  let record dir =
    match Rc.list_store ~dir with
    | [ d ] -> read_file (Filename.concat dir (d ^ ".json"))
    | l -> Alcotest.failf "expected 1 record, got %d" (List.length l)
  in
  Alcotest.(check string) "record byte-identical to fault-free store"
    (record clean) (record faulty)

(* ---------------- manifest publication under chaos ----------------- *)

(* Every save under injected EIO and torn writes either raises
   [Sys_error] and leaves the previous manifest byte-identical, or
   publishes the whole new one; a failed save leaves no tmp file, and
   whatever is left always loads. *)
let test_manifest_save_under_chaos () =
  let dir = tmp_dir "manifest" in
  let path = Filename.concat dir "m.json" in
  Manifest.save ~path (Manifest.demo ~tasks:1 ());
  let failed = ref 0 and saved = ref 0 in
  let stats =
    with_chaos 4242 (fun () ->
        for i = 1 to 200 do
          let m = Manifest.demo ~tasks:(1 + (i mod 4)) ~seed0:i () in
          let before = read_file path in
          (match Manifest.save ~path m with
          | () ->
              incr saved;
              Alcotest.(check string) "whole new manifest" (Manifest.to_json m)
                (read_file path)
          | exception Sys_error _ ->
              incr failed;
              Alcotest.(check string) "previous manifest intact" before
                (read_file path));
          match Manifest.load ~path with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "load after save %d: %s" i e
        done;
        Chaos.stats ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "both outcomes seen (%d saved, %d failed)" !saved !failed)
    true
    (!saved > 0 && !failed > 0);
  Alcotest.(check bool) "torn writes and EIO injected" true
    (stats.Chaos.torn_writes > 0 && stats.Chaos.eio > 0);
  Alcotest.(check (list string)) "no tmp left behind" [ "m.json" ]
    (Array.to_list (Sys.readdir dir))

(* ------------------------- scrub property -------------------------- *)

(* A pristine 3-record store, built once; each QCheck iteration copies
   it into a fresh dir, corrupts a chosen subset (key-region byte flip
   or truncation — both verifiably detectable), scrubs, and checks the
   partition invariant: quarantined ∪ surviving = original, exactly
   the corrupted records are quarantined, survivors are byte-intact,
   and re-publishing restores byte-identity (self-healing resume). *)
let scrub_manifest = Manifest.demo ~tasks:3 ~duration:2.0 ()

let pristine =
  lazy
    (let dir = tmp_dir "pristine" in
     List.iter
       (fun cfg -> Rc.store_to ~dir cfg (Scenario.run cfg))
       scrub_manifest.Manifest.tasks;
     List.map
       (fun d -> (d, read_file (Filename.concat dir (d ^ ".json"))))
       (Rc.list_store ~dir))

let corrupt ~mode ~at content =
  match mode with
  | `Flip ->
      (* Flip a byte inside the embedded key: either the digest check
         or the JSON parse must catch it. *)
      let b = Bytes.of_string content in
      let k =
        match find_sub content "\"key\"" with
        | Some k -> k
        | None -> Alcotest.fail "record has no key field"
      in
      let i = k + 8 + (at mod 16) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      Bytes.to_string b
  | `Truncate ->
      (* Any proper prefix short of the closing brace is unparsable. *)
      String.sub content 0 (1 + (at mod (String.length content - 2)))

let scrub_partition_prop (mask, mode_bits, at) =
  let records = Lazy.force pristine in
  let dir = tmp_dir "scrub" in
  let corrupted =
    List.filteri
      (fun i (digest, bytes) ->
        let hit = mask land (1 lsl i) <> 0 in
        let bytes =
          if hit then
            corrupt
              ~mode:(if mode_bits land (1 lsl i) <> 0 then `Flip else `Truncate)
              ~at bytes
          else bytes
        in
        let oc = open_out_bin (Filename.concat dir (digest ^ ".json")) in
        output_string oc bytes;
        close_out oc;
        hit)
      records
    |> List.map fst
    |> List.sort String.compare
  in
  let rep = Rc.scrub ~dir () in
  let surviving = Rc.list_store ~dir in
  let quarantined =
    List.sort String.compare (List.map fst rep.Rc.scrub_quarantined)
  in
  (* Partition: nothing deleted, every record accounted for. *)
  List.sort String.compare (quarantined @ surviving)
  = List.sort String.compare (List.map fst records)
  && rep.Rc.scrub_checked = List.length records
  && rep.Rc.scrub_ok = List.length surviving
  && quarantined = corrupted
  && List.for_all
       (fun d -> Sys.file_exists (Filename.concat rep.Rc.scrub_dir (d ^ ".json")))
       quarantined
  (* Survivors untouched, and re-publishing the quarantined configs
     restores the store to byte-identity with the pristine build. *)
  && List.for_all
       (fun (d, bytes) ->
         if List.mem d quarantined then true
         else read_file (Filename.concat dir (d ^ ".json")) = bytes)
       records
  &&
  (List.iter
     (fun cfg -> Rc.store_to ~dir cfg (Scenario.run cfg))
     scrub_manifest.Manifest.tasks;
   List.for_all
     (fun (d, bytes) -> read_file (Filename.concat dir (d ^ ".json")) = bytes)
     records)

let scrub_partition =
  QCheck.Test.make ~name:"scrub partitions the store; resume self-heals"
    ~count:30
    QCheck.(triple (int_range 0 7) (int_range 0 7) (int_range 0 10_000))
    scrub_partition_prop

let test_scrub_clean_store () =
  let records = Lazy.force pristine in
  let dir = tmp_dir "scrub-clean" in
  List.iter
    (fun (d, bytes) ->
      let oc = open_out_bin (Filename.concat dir (d ^ ".json")) in
      output_string oc bytes;
      close_out oc)
    records;
  let rep = Rc.scrub ~dir () in
  Alcotest.(check int) "all checked" (List.length records) rep.Rc.scrub_checked;
  Alcotest.(check int) "all ok" (List.length records) rep.Rc.scrub_ok;
  Alcotest.(check (list (pair string string))) "nothing quarantined" []
    rep.Rc.scrub_quarantined;
  Alcotest.(check bool) "empty store is fine" true
    ((Rc.scrub ~dir:(tmp_dir "scrub-empty") ()).Rc.scrub_checked = 0)

(* A record in the previous (v6) store format — key as a flat string,
   file named by its MD5 — is intact but stale: scrub must name it
   "stale version", not corrupt, and still only move it to quarantine. *)
let test_scrub_stale_version () =
  let records = Lazy.force pristine in
  let dir = tmp_dir "scrub-stale" in
  let write name bytes =
    let oc = open_out_bin (Filename.concat dir (name ^ ".json")) in
    output_string oc bytes;
    close_out oc
  in
  List.iter (fun (d, bytes) -> write d bytes) records;
  let cfg = List.hd scrub_manifest.Manifest.tasks in
  let v6_key =
    Printf.sprintf
      "ebrc-scenario-v6;seed=%d;bps=%h;owd=%h;queue=dt:25;pkt=%d;ntfrc=%d;\
       ntcp=%d;probe=%b;l=%d;formula=pftk;compr=%b;conform=%b;jitter=%h;\
       dur=%h;warm=%h;faults=none;bg=none"
      cfg.Scenario.seed cfg.bottleneck_bps cfg.one_way_delay cfg.packet_size
      cfg.n_tfrc cfg.n_tcp cfg.with_probe cfg.tfrc_l cfg.tfrc_comprehensive
      cfg.tfrc_conform_to_analysis cfg.reverse_jitter cfg.duration cfg.warmup
  in
  let v6_digest = Digest.to_hex (Digest.string v6_key) in
  write v6_digest
    (Printf.sprintf
       "{\"schema\":1,\"version\":\"ebrc-scenario-v6\",\"key\":\"%s\",\"result\":%s}\n"
       v6_key
       (Rc.serialize_result (Scenario.run cfg)));
  let rep = Rc.scrub ~dir () in
  let n = List.length records in
  Alcotest.(check int) "all checked" (n + 1) rep.Rc.scrub_checked;
  Alcotest.(check int) "current records ok" n rep.Rc.scrub_ok;
  Alcotest.(check (list (pair string string))) "v6 record quarantined"
    [ (v6_digest, "stale version") ]
    rep.Rc.scrub_quarantined;
  Alcotest.(check (list string)) "reported as stale" [ v6_digest ]
    rep.Rc.scrub_stale;
  Alcotest.(check bool) "moved, not deleted" true
    (Sys.file_exists (Filename.concat rep.Rc.scrub_dir (v6_digest ^ ".json")));
  (* A damaged current-version record is corrupt, not stale. *)
  let d, bytes = List.hd records in
  write d (String.sub bytes 0 40);
  let rep = Rc.scrub ~dir () in
  (match rep.Rc.scrub_quarantined with
  | [ (d', why) ] ->
      Alcotest.(check string) "truncated record quarantined" d d';
      Alcotest.(check bool) ("corrupt, with the parse offset: " ^ why) true
        (String.starts_with ~prefix:"corrupt: " why && has_sub why "at offset")
  | q -> Alcotest.failf "expected one quarantined record, got %d" (List.length q));
  Alcotest.(check (list string)) "and not reported stale" [] rep.Rc.scrub_stale

(* A record with one field renamed is quarantined as corrupt, and the
   reason names the field by its path. *)
let test_scrub_names_field () =
  let records = Lazy.force pristine in
  let dir = tmp_dir "scrub-renamed" in
  let d, bytes = List.hd records in
  let at =
    match find_sub bytes "\"mean_rtt\":" with
    | Some i -> i
    | None -> Alcotest.fail "record has no mean_rtt field"
  in
  let renamed =
    String.sub bytes 0 at ^ "\"mean_rtx\":"
    ^ String.sub bytes (at + 11) (String.length bytes - at - 11)
  in
  let oc = open_out_bin (Filename.concat dir (d ^ ".json")) in
  output_string oc renamed;
  close_out oc;
  let rep = Rc.scrub ~dir () in
  Alcotest.(check (list (pair string string))) "quarantined, field named"
    [ (d, "corrupt: result.tfrc[0].mean_rtt: missing") ]
    rep.Rc.scrub_quarantined

(* ------------------------ flight recorder -------------------------- *)

let test_flight_attrs () =
  let dir = tmp_dir "flight" in
  Flight.set_dir dir;
  Flight.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Flight.set_enabled false)
    (fun () ->
      Flight.on_exn ~reason:"worker.task"
        ~attrs:[ ("digest", "abc123"); ("chaos_seed", "99") ]
        (Failure "task exploded");
      match Flight.last_dump () with
      | None -> Alcotest.fail "no dump written"
      | Some path ->
          let body = read_file path in
          Alcotest.(check bool) "digest attr in dump" true
            (has_sub body "\"digest\":\"abc123\"");
          Alcotest.(check bool) "chaos seed attr in dump" true
            (has_sub body "\"chaos_seed\":\"99\"");
          Alcotest.(check bool) "reason in dump" true
            (has_sub body "worker.task"))

let () =
  Alcotest.run "chaos"
    [
      ( "shim",
        [
          Alcotest.test_case "off = inert" `Quick test_chaos_off_inert;
          Alcotest.test_case "seeded determinism" `Quick
            test_chaos_seeded_determinism;
        ] );
      ( "store",
        [
          Alcotest.test_case "publication converges under chaos" `Quick
            test_store_converges_under_chaos;
          Alcotest.test_case "manifest save under chaos" `Quick
            test_manifest_save_under_chaos;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "clean store" `Quick test_scrub_clean_store;
          Alcotest.test_case "stale version" `Quick test_scrub_stale_version;
          QCheck_alcotest.to_alcotest scrub_partition;
          Alcotest.test_case "corrupt record names its field" `Quick
            test_scrub_names_field;
        ] );
      ( "flight",
        [ Alcotest.test_case "failure attrs" `Quick test_flight_attrs ] );
    ]
