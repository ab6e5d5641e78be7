(* Tests for the multi-process sweep service: manifest codec
   exactness, lease-claim atomicity (including cross-process
   contention via fork — safe here because these tests spawn no
   domains before forking), crashed-worker recovery, store tmp GC, and
   the serve planner's resume semantics. *)

module Manifest = Ebrc_serve.Manifest
module Task_queue = Ebrc_serve.Task_queue
module Worker = Ebrc_serve.Worker
module Serve = Ebrc_serve.Serve
module Scenario = Ebrc.Scenario
module Rc = Ebrc.Result_cache
module Codec = Ebrc.Codec
module Fault = Ebrc.Fault

let tmp_dir =
  let counter = ref 0 in
  fun name ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ebrc-test-serve-%d-%s-%d" (Unix.getpid ()) name
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

(* A config exercising every optional arm of the codec: manual RED,
   AIMD formula, full fault config, fluid background. *)
let ornate_config =
  {
    Scenario.default_config with
    seed = 7;
    bottleneck_bps = 1.25e6;
    queue =
      Scenario.Red_manual
        {
          capacity = 60;
          params =
            {
              Ebrc.Queue_discipline.min_th = 5.0;
              max_th = 15.0;
              max_p = 0.1;
              wq = 0.002;
              byte_mode = false;
              mean_pktsize = 1000;
              gentle = true;
            };
        };
    tfrc_formula_kind = Ebrc.Formula.Aimd { alpha = 0.31; beta = 0.125 };
    reverse_jitter = 0.2;
    duration = 11.5;
    warmup = 2.3;
    faults =
      Some
        {
          Ebrc.Fault.flaps =
            Some
              {
                Ebrc.Fault.first_down = 3.0;
                down_mean = 0.5;
                up_mean = 4.0;
                flap_jitter = 0.1;
                park = false;
              };
          blackouts =
            [ { Ebrc.Fault.start = 1.0; length = 0.2; period = 5.0 } ];
          spike =
            Some ({ Ebrc.Fault.start = 2.0; length = 0.5; period = 0.0 }, 0.05);
          reorder =
            Some
              ({ Ebrc.Fault.start = 0.0; length = 1.0; period = 3.0 }, 0.2, 0.01);
          duplicate =
            Some ({ Ebrc.Fault.start = 4.0; length = 0.3; period = 0.0 }, 0.5);
        };
    background = Some (Scenario.default_background ~flows:1000);
    second_hop =
      Some
        { Scenario.hop_bps = 2.5e6; hop_delay = 0.015; hop_capacity = 40;
          cross_fraction = 0.25 };
  }

(* ----------------------------- manifest --------------------------- *)

let test_manifest_roundtrip () =
  let m = Manifest.demo ~tasks:3 () in
  let json = Manifest.to_json m in
  match Manifest.of_json json with
  | Error e -> Alcotest.failf "of_json failed: %s" e
  | Ok m' ->
      Alcotest.(check string) "re-save is byte-identical" json
        (Manifest.to_json m');
      Alcotest.(check (list string))
        "digests survive the round-trip"
        (List.map Rc.digest_of_config m.Manifest.tasks)
        (List.map Rc.digest_of_config m'.Manifest.tasks)

(* Seeds above 2^53 are not representable as doubles: a reader that
   routes JSON integers through floats collapses consecutive seeds
   into one task. *)
let test_manifest_large_seeds () =
  let seed0 = 1152921504606846977 in
  let m = Manifest.demo ~tasks:2 ~seed0 () in
  match Manifest.of_json (Manifest.to_json m) with
  | Error e -> Alcotest.failf "of_json failed: %s" e
  | Ok m' ->
      Alcotest.(check (list int)) "seeds read back exactly"
        [ seed0; seed0 + 1 ]
        (List.map (fun c -> c.Scenario.seed) m'.Manifest.tasks);
      Alcotest.(check int) "two distinct tasks" 2
        (List.length
           (List.sort_uniq String.compare
              (List.map Rc.digest_of_config m'.Manifest.tasks)))

(* ------------------------------ codec ----------------------------- *)

(* Random configs over every queue, formula, fault and background
   variant, full-range ints and the floats a hand-rolled codec gets
   wrong: signed zeros, subnormals, infinities and nan. *)
let gen_config =
  let open QCheck.Gen in
  let int =
    oneof [ int; small_signed_int; oneofl [ min_int; max_int; 0; -1 ] ]
  in
  let float =
    oneof
      [
        float;
        oneofl
          [ 0.0; -0.0; 4.9e-324; -2.2e-310; Float.min_float; infinity;
            neg_infinity; nan; Float.max_float; 0.1 ];
      ]
  in
  let window =
    map3 (fun start length period -> { Fault.start; length; period })
      float float float
  in
  let red =
    let+ min_th = float and+ max_th = float and+ max_p = float
    and+ wq = float and+ byte_mode = bool and+ mean_pktsize = int
    and+ gentle = bool in
    { Ebrc.Queue_discipline.min_th; max_th; max_p; wq; byte_mode;
      mean_pktsize; gentle }
  in
  let queue =
    oneof
      [
        map (fun capacity -> Scenario.Drop_tail { capacity }) int;
        map (fun capacity -> Scenario.Red_auto { capacity }) int;
        map2 (fun capacity params -> Scenario.Red_manual { capacity; params })
          int red;
      ]
  in
  let formula =
    oneof
      [
        oneofl Ebrc.Formula.[ Sqrt; Pftk_standard; Pftk_simplified ];
        map2 (fun alpha beta -> Ebrc.Formula.Aimd { alpha; beta }) float float;
      ]
  in
  let faults =
    let+ flaps =
      opt
        (let+ first_down = float and+ down_mean = float and+ up_mean = float
         and+ flap_jitter = float and+ park = bool in
         { Fault.first_down; down_mean; up_mean; flap_jitter; park })
    and+ blackouts = list_size (int_bound 3) window
    and+ spike = opt (pair window float)
    and+ reorder = opt (triple window float float)
    and+ duplicate = opt (pair window float) in
    { Fault.flaps; blackouts; spike; reorder; duplicate }
  in
  let background =
    map3
      (fun bg_flows bg_share_cap bg_resolution ->
        { Scenario.bg_flows; bg_share_cap; bg_resolution })
      int float float
  in
  let hop =
    let+ hop_bps = float and+ hop_delay = float and+ hop_capacity = int
    and+ cross_fraction = float in
    { Scenario.hop_bps; hop_delay; hop_capacity; cross_fraction }
  in
  let+ seed = int and+ bottleneck_bps = float and+ one_way_delay = float
  and+ queue = queue and+ packet_size = int and+ n_tfrc = int
  and+ n_tcp = int and+ with_probe = bool and+ tfrc_l = int
  and+ tfrc_formula_kind = formula and+ tfrc_comprehensive = bool
  and+ tfrc_conform_to_analysis = bool and+ reverse_jitter = float
  and+ duration = float and+ warmup = float and+ faults = opt faults
  and+ background = opt background and+ second_hop = opt hop in
  { Scenario.seed; bottleneck_bps; one_way_delay; queue; packet_size; n_tfrc;
    n_tcp; with_probe; tfrc_l; tfrc_formula_kind; tfrc_comprehensive;
    tfrc_conform_to_analysis; reverse_jitter; duration; warmup; faults;
    background; second_hop }

let arb_config = QCheck.make ~print:Codec.encode gen_config

(* [compare] equates nan with nan but also 0.0 with -0.0, so the bytes
   are compared too. *)
let roundtrips c =
  match Codec.decode (Codec.encode c) with
  | Ok c' -> compare c' c = 0 && Codec.encode c' = Codec.encode c
  | Error _ -> false

let test_codec_roundtrip () =
  Alcotest.(check bool) "ornate config round-trips" true
    (roundtrips ornate_config);
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"decode (encode c) = c" ~count:500 arb_config
       roundtrips)

(* One mutation per config field, each guaranteed to change it
   (bitwise: 0.0 becomes -0.0); [None] when the field is absent from
   this config's variant. *)
let mutations : (Scenario.config -> Scenario.config option) list =
  let f x = if Float.is_nan x then 0.0 else Float.neg x in
  let red (c : Scenario.config) g =
    match c.queue with
    | Scenario.Red_manual { capacity; params } ->
        Some { c with queue = Scenario.Red_manual { capacity; params = g params } }
    | _ -> None
  in
  let aimd (c : Scenario.config) g =
    match c.tfrc_formula_kind with
    | Ebrc.Formula.Aimd { alpha; beta } ->
        let alpha, beta = g (alpha, beta) in
        Some { c with tfrc_formula_kind = Ebrc.Formula.Aimd { alpha; beta } }
    | _ -> None
  in
  let faults (c : Scenario.config) g =
    Option.bind c.faults (fun fc ->
        Option.map (fun fc -> { c with faults = Some fc }) (g fc))
  in
  let flaps c g =
    faults c (fun fc ->
        Option.map (fun fl -> { fc with Fault.flaps = Some (g fl) }) fc.Fault.flaps)
  in
  let win (w : Fault.window) = { w with Fault.start = f w.Fault.start } in
  let bg (c : Scenario.config) g =
    Option.map (fun b -> { c with background = Some (g b) }) c.background
  in
  let hop (c : Scenario.config) g =
    Option.map (fun h -> { c with second_hop = Some (g h) }) c.second_hop
  in
  Scenario.
    [
      (fun c -> Some { c with seed = c.seed + 1 });
      (fun c -> Some { c with bottleneck_bps = f c.bottleneck_bps });
      (fun c -> Some { c with one_way_delay = f c.one_way_delay });
      (fun c ->
        Some
          {
            c with
            queue =
              (match c.queue with
              | Drop_tail { capacity } -> Drop_tail { capacity = capacity + 1 }
              | Red_auto { capacity } -> Red_auto { capacity = capacity + 1 }
              | Red_manual r -> Red_manual { r with capacity = r.capacity + 1 });
          });
      (fun c ->
        Some
          {
            c with
            queue =
              (match c.queue with
              | Drop_tail { capacity } -> Red_auto { capacity }
              | Red_auto { capacity } | Red_manual { capacity; _ } ->
                  Drop_tail { capacity });
          });
      (fun c -> red c (fun p -> { p with min_th = f p.min_th }));
      (fun c -> red c (fun p -> { p with max_th = f p.max_th }));
      (fun c -> red c (fun p -> { p with max_p = f p.max_p }));
      (fun c -> red c (fun p -> { p with wq = f p.wq }));
      (fun c -> red c (fun p -> { p with byte_mode = not p.byte_mode }));
      (fun c -> red c (fun p -> { p with mean_pktsize = p.mean_pktsize + 1 }));
      (fun c -> red c (fun p -> { p with gentle = not p.gentle }));
      (fun c -> Some { c with packet_size = c.packet_size + 1 });
      (fun c -> Some { c with n_tfrc = c.n_tfrc + 1 });
      (fun c -> Some { c with n_tcp = c.n_tcp + 1 });
      (fun c -> Some { c with with_probe = not c.with_probe });
      (fun c -> Some { c with tfrc_l = c.tfrc_l + 1 });
      (fun c ->
        Some
          {
            c with
            tfrc_formula_kind =
              (match c.tfrc_formula_kind with
              | Ebrc.Formula.Sqrt -> Ebrc.Formula.Pftk_standard
              | Pftk_standard -> Pftk_simplified
              | Pftk_simplified | Aimd _ -> Sqrt);
          });
      (fun c -> aimd c (fun (a, b) -> (f a, b)));
      (fun c -> aimd c (fun (a, b) -> (a, f b)));
      (fun c -> Some { c with tfrc_comprehensive = not c.tfrc_comprehensive });
      (fun c ->
        Some
          { c with tfrc_conform_to_analysis = not c.tfrc_conform_to_analysis });
      (fun c -> Some { c with reverse_jitter = f c.reverse_jitter });
      (fun c -> Some { c with duration = f c.duration });
      (fun c -> Some { c with warmup = f c.warmup });
      (fun c ->
        Some
          {
            c with
            faults = (match c.faults with None -> Some Fault.none | Some _ -> None);
          });
      (fun c ->
        faults c (fun fc ->
            Some
              {
                fc with
                Fault.flaps =
                  (match fc.Fault.flaps with
                  | None ->
                      Some
                        { Fault.first_down = 0.0; down_mean = 0.0;
                          up_mean = 0.0; flap_jitter = 0.0; park = false }
                  | Some _ -> None);
              }));
      (fun c -> flaps c (fun fl -> { fl with first_down = f fl.Fault.first_down }));
      (fun c -> flaps c (fun fl -> { fl with down_mean = f fl.Fault.down_mean }));
      (fun c -> flaps c (fun fl -> { fl with up_mean = f fl.Fault.up_mean }));
      (fun c -> flaps c (fun fl -> { fl with flap_jitter = f fl.Fault.flap_jitter }));
      (fun c -> flaps c (fun fl -> { fl with park = not fl.Fault.park }));
      (fun c ->
        faults c (fun fc ->
            let w = { Fault.start = 0.0; length = 0.0; period = 0.0 } in
            Some { fc with Fault.blackouts = w :: fc.Fault.blackouts }));
      (fun c ->
        faults c (fun fc ->
            match fc.Fault.blackouts with
            | w :: ws -> Some { fc with blackouts = win w :: ws }
            | [] -> None));
      (fun c ->
        faults c (fun fc ->
            match fc.Fault.blackouts with
            | w :: ws ->
                Some { fc with blackouts = { w with length = f w.Fault.length } :: ws }
            | [] -> None));
      (fun c ->
        faults c (fun fc ->
            match fc.Fault.blackouts with
            | w :: ws ->
                Some { fc with blackouts = { w with period = f w.Fault.period } :: ws }
            | [] -> None));
      (fun c ->
        faults c (fun fc ->
            Option.map (fun (w, d) -> { fc with Fault.spike = Some (win w, d) })
              fc.Fault.spike));
      (fun c ->
        faults c (fun fc ->
            Option.map (fun (w, d) -> { fc with Fault.spike = Some (w, f d) })
              fc.Fault.spike));
      (fun c ->
        faults c (fun fc ->
            Option.map
              (fun (w, p, h) -> { fc with Fault.reorder = Some (win w, p, h) })
              fc.Fault.reorder));
      (fun c ->
        faults c (fun fc ->
            Option.map
              (fun (w, p, h) -> { fc with Fault.reorder = Some (w, f p, h) })
              fc.Fault.reorder));
      (fun c ->
        faults c (fun fc ->
            Option.map
              (fun (w, p, h) -> { fc with Fault.reorder = Some (w, p, f h) })
              fc.Fault.reorder));
      (fun c ->
        faults c (fun fc ->
            Option.map
              (fun (w, p) -> { fc with Fault.duplicate = Some (win w, p) })
              fc.Fault.duplicate));
      (fun c ->
        faults c (fun fc ->
            Option.map
              (fun (w, p) -> { fc with Fault.duplicate = Some (w, f p) })
              fc.Fault.duplicate));
      (fun c ->
        Some
          {
            c with
            background =
              (match c.background with
              | None -> Some (default_background ~flows:1)
              | Some _ -> None);
          });
      (fun c -> bg c (fun b -> { b with bg_flows = b.bg_flows + 1 }));
      (fun c -> bg c (fun b -> { b with bg_share_cap = f b.bg_share_cap }));
      (fun c -> bg c (fun b -> { b with bg_resolution = f b.bg_resolution }));
      (fun c ->
        Some
          {
            c with
            second_hop =
              (match c.second_hop with
              | None -> chain_config.second_hop
              | Some _ -> None);
          });
      (fun c -> hop c (fun h -> { h with hop_bps = f h.hop_bps }));
      (fun c -> hop c (fun h -> { h with hop_delay = f h.hop_delay }));
      (fun c -> hop c (fun h -> { h with hop_capacity = h.hop_capacity + 1 }));
      (fun c -> hop c (fun h -> { h with cross_fraction = f h.cross_fraction }));
    ]

let mutations_move_digest c =
  let d = Rc.digest_of_config c in
  List.for_all
    (fun m ->
      match m c with None -> true | Some c' -> Rc.digest_of_config c' <> d)
    mutations

let test_codec_injective () =
  Alcotest.(check bool) "every ornate-config mutation moves its digest" true
    (mutations_move_digest ornate_config);
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"single-field mutations move the digest"
       ~count:300 arb_config mutations_move_digest);
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"distinct configs, distinct digests" ~count:500
       (QCheck.pair arb_config arb_config) (fun (a, b) ->
         compare a b = 0 || Rc.digest_of_config a <> Rc.digest_of_config b))

let test_manifest_file_io () =
  let dir = tmp_dir "manifest" in
  let path = Filename.concat dir "m.json" in
  let m = Manifest.demo ~tasks:2 ~seed0:9 ~duration:3.0 () in
  Manifest.save ~path m;
  (match Manifest.load ~path with
  | Ok m' ->
      Alcotest.(check string) "load/save byte-identical" (Manifest.to_json m)
        (Manifest.to_json m')
  | Error e -> Alcotest.failf "load failed: %s" e);
  match Manifest.load ~path:(Filename.concat dir "absent.json") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loading a missing manifest succeeded"

let test_manifest_rejects_junk () =
  (match Manifest.of_json "{\"schema\":1,\"codec\":\"nope\",\"tasks\":[]}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong codec accepted");
  (match Codec.decode "{\"seed\":1}" with
  | Error e ->
      Alcotest.(check bool) ("error names a missing field: " ^ e) true
        (String.ends_with ~suffix:": missing" e && e <> ": missing")
  | Ok _ -> Alcotest.fail "truncated task accepted");
  let module J = Ebrc_obs.Json in
  let set k v = List.map (fun (k', v') -> (k', if k' = k then v else v')) in
  let bad =
    match Codec.to_json ornate_config with
    | J.Obj kvs ->
        J.Obj
          (List.map
             (function
               | "queue", J.Obj q -> ("queue", J.Obj (set "capacity" (J.Num 6.5) q))
               | kv -> kv)
             kvs)
    | _ -> Alcotest.fail "config is not an object"
  in
  (match J.decoding Codec.config_of bad with
  | Error e ->
      Alcotest.(check string) "nested error names the path"
        "queue.capacity: expected an integer" e
  | Ok _ -> Alcotest.fail "fractional capacity accepted");
  let bad =
    match Codec.to_json ornate_config with
    | J.Obj kvs ->
        J.Obj
          (List.map
             (function
               | "second_hop", J.Obj h ->
                   ("second_hop", J.Obj (set "cross_fraction" (J.Bool true) h))
               | kv -> kv)
             kvs)
    | _ -> Alcotest.fail "config is not an object"
  in
  match J.decoding Codec.config_of bad with
  | Error e ->
      Alcotest.(check string) "hop error names the path"
        "second_hop.cross_fraction: expected a float" e
  | Ok _ -> Alcotest.fail "boolean cross_fraction accepted"

(* A config without a second hop encodes with no [second_hop] key, so
   its bytes, cache key and store record are those of a config from
   before the field existed. *)
let test_codec_omits_absent_hop () =
  let module J = Ebrc_obs.Json in
  let has_hop c =
    Result.is_ok (J.decoding (J.field "second_hop") (Codec.to_json c))
  in
  Alcotest.(check bool) "no second_hop key" false
    (has_hop Scenario.default_config);
  Alcotest.(check bool) "second_hop key when set" true
    (has_hop ornate_config);
  Alcotest.(check bool) "absent key decodes as None" true
    (match Codec.decode (Codec.encode Scenario.default_config) with
    | Ok c -> c.Scenario.second_hop = None
    | Error _ -> false)

(* ---------------------------- task queue -------------------------- *)

let claim_tt =
  Alcotest.testable
    (fun ppf -> function
      | Task_queue.Claimed -> Format.fprintf ppf "Claimed"
      | Task_queue.Busy -> Format.fprintf ppf "Busy"
      | Task_queue.Gone -> Format.fprintf ppf "Gone")
    ( = )

let test_queue_basics () =
  let q = Task_queue.create ~dir:(tmp_dir "queue") () in
  Alcotest.(check (list string)) "empty" [] (Task_queue.pending q);
  Task_queue.enqueue q ~digest:"bbb" ~spec:"{\"b\":1}";
  Task_queue.enqueue q ~digest:"aaa" ~spec:"{\"a\":1}";
  Task_queue.enqueue q ~digest:"aaa" ~spec:"{\"overwrite\":true}";
  Alcotest.(check (list string)) "sorted" [ "aaa"; "bbb" ]
    (Task_queue.pending q);
  Alcotest.(check (option string)) "enqueue is idempotent"
    (Some "{\"a\":1}\n")
    (Task_queue.read_spec q ~digest:"aaa");
  Alcotest.check claim_tt "first claim wins" Task_queue.Claimed
    (Task_queue.claim q ~worker:"w1" ~ttl:60.0 ~digest:"aaa");
  Alcotest.check claim_tt "second claimant busy" Task_queue.Busy
    (Task_queue.claim q ~worker:"w2" ~ttl:60.0 ~digest:"aaa");
  Alcotest.(check int) "one lease" 1 (Task_queue.leased q);
  Task_queue.release q ~digest:"aaa";
  Alcotest.check claim_tt "claimable after release" Task_queue.Claimed
    (Task_queue.claim q ~worker:"w2" ~ttl:60.0 ~digest:"aaa");
  Task_queue.complete q ~digest:"aaa";
  Alcotest.(check (list string)) "completed leaves the queue" [ "bbb" ]
    (Task_queue.pending q);
  Alcotest.check claim_tt "completed task is gone" Task_queue.Gone
    (Task_queue.claim q ~worker:"w2" ~ttl:60.0 ~digest:"aaa");
  Task_queue.fail q ~worker:"w2" ~digest:"bbb" ~message:"boom \"quoted\"";
  Alcotest.(check (list string)) "failed leaves the queue" []
    (Task_queue.pending q);
  match Task_queue.failed q with
  | [ (d, m) ] ->
      Alcotest.(check string) "failed digest" "bbb" d;
      Alcotest.(check string) "failure message survives escaping"
        "boom \"quoted\"" m
  | l -> Alcotest.failf "expected 1 failure record, got %d" (List.length l)

let test_queue_expired_lease_reclaim () =
  let q = Task_queue.create ~dir:(tmp_dir "reclaim") () in
  Task_queue.enqueue q ~digest:"t1" ~spec:"{}";
  (* Negative ttl: the lease is born expired. *)
  Alcotest.check claim_tt "claim with past deadline" Task_queue.Claimed
    (Task_queue.claim q ~worker:"dead" ~ttl:(-1.0) ~digest:"t1");
  Alcotest.check claim_tt "expired lease is reclaimed" Task_queue.Claimed
    (Task_queue.claim q ~worker:"alive" ~ttl:60.0 ~digest:"t1");
  Alcotest.check claim_tt "fresh lease holds" Task_queue.Busy
    (Task_queue.claim q ~worker:"third" ~ttl:60.0 ~digest:"t1")

let test_queue_torn_lease () =
  let dir = tmp_dir "torn" in
  let q = Task_queue.create ~dir () in
  Task_queue.enqueue q ~digest:"t1" ~spec:"{}";
  (* A claimant killed between O_EXCL create and write leaves an empty
     lease file. Within the grace period it still holds the lease;
     once aged past it, it reads as expired. *)
  let lease = Filename.concat (Filename.concat dir "leases") "t1.lease" in
  let oc = open_out lease in
  close_out oc;
  Alcotest.check claim_tt "young torn lease holds" Task_queue.Busy
    (Task_queue.claim q ~worker:"w" ~ttl:60.0 ~digest:"t1");
  let old = Unix.gettimeofday () -. 3600.0 in
  Unix.utimes lease old old;
  Alcotest.check claim_tt "aged torn lease is reclaimed" Task_queue.Claimed
    (Task_queue.claim q ~worker:"w" ~ttl:60.0 ~digest:"t1")

(* A lease body that parses but whose deadline is not a hex float (or
   a number) is read like a torn one: it holds for the grace period
   after its mtime, then expires. A plain number is a deadline. *)
let test_queue_unreadable_deadline () =
  let dir = tmp_dir "junk-deadline" in
  let q = Task_queue.create ~torn_grace:60.0 ~dir () in
  Task_queue.enqueue q ~digest:"t1" ~spec:"{}";
  let lease = Filename.concat (Filename.concat dir "leases") "t1.lease" in
  let write body =
    let oc = open_out_bin lease in
    output_string oc body;
    close_out oc
  in
  write {|{"schema":1,"worker":"w","pid":1,"deadline":"junk"}|};
  Alcotest.check claim_tt "junk deadline holds within the grace"
    Task_queue.Busy
    (Task_queue.claim q ~worker:"x" ~ttl:60.0 ~digest:"t1");
  let old = Unix.gettimeofday () -. 3600.0 in
  Unix.utimes lease old old;
  Alcotest.check claim_tt "junk deadline expires past the grace"
    Task_queue.Claimed
    (Task_queue.claim q ~worker:"x" ~ttl:60.0 ~digest:"t1");
  Sys.remove lease;
  write (Printf.sprintf {|{"schema":1,"worker":"w","pid":1,"deadline":%.0f}|} old);
  Alcotest.check claim_tt "past number deadline is reclaimed"
    Task_queue.Claimed
    (Task_queue.claim q ~worker:"x" ~ttl:60.0 ~digest:"t1")

let test_queue_torn_grace_config () =
  (* Explicit parameter wins. *)
  let q = Task_queue.create ~torn_grace:5.0 ~dir:(tmp_dir "grace-a") () in
  Alcotest.(check (float 1e-9)) "explicit grace" 5.0 (Task_queue.torn_grace q);
  (* EBRC_LEASE_GRACE steers the default; empty falls back, "0" is a
     zero grace and junk fails naming the variable. *)
  Unix.putenv "EBRC_LEASE_GRACE" "123.5";
  let q = Task_queue.create ~dir:(tmp_dir "grace-b") () in
  Alcotest.(check (float 1e-9)) "env grace" 123.5 (Task_queue.torn_grace q);
  List.iter
    (fun v ->
      Unix.putenv "EBRC_LEASE_GRACE" v;
      Alcotest.check_raises ("junk env " ^ v)
        (Invalid_argument
           (Printf.sprintf
              "EBRC_LEASE_GRACE: expected a finite number of seconds >= 0, \
               got %S" v))
        (fun () -> ignore (Task_queue.create ~dir:(tmp_dir "grace-c") ())))
    [ "not-a-float"; "-1"; "nan" ];
  Unix.putenv "EBRC_LEASE_GRACE" "123.5";
  let q = Task_queue.create ~torn_grace:2.0 ~dir:(tmp_dir "grace-d") () in
  Alcotest.(check (float 1e-9)) "explicit still beats env" 2.0
    (Task_queue.torn_grace q);
  Unix.putenv "EBRC_LEASE_GRACE" "0";
  let q = Task_queue.create ~dir:(tmp_dir "grace-f") () in
  Alcotest.(check (float 1e-9)) "zero env grace" 0.0 (Task_queue.torn_grace q);
  Unix.putenv "EBRC_LEASE_GRACE" "";
  let q = Task_queue.create ~dir:(tmp_dir "grace-g") () in
  Alcotest.(check (float 1e-9)) "empty env falls back" 10.0
    (Task_queue.torn_grace q);
  (* A short grace turns a freshly torn lease reclaimable quickly. *)
  let dir = tmp_dir "grace-e" in
  let q = Task_queue.create ~torn_grace:0.05 ~dir () in
  Task_queue.enqueue q ~digest:"t1" ~spec:"{}";
  let lease = Filename.concat (Filename.concat dir "leases") "t1.lease" in
  let oc = open_out lease in
  close_out oc;
  Unix.sleepf 0.2;
  Alcotest.check claim_tt "torn lease expired past short grace"
    Task_queue.Claimed
    (Task_queue.claim q ~worker:"w" ~ttl:60.0 ~digest:"t1")

(* Lease, failure and poison bodies keep the bytes of their original
   printf templates, escapes included; the lease deadline is a hex
   float in a string. *)
let test_queue_record_bodies () =
  let dir = tmp_dir "bodies" in
  let q = Task_queue.create ~dir () in
  let body sub name =
    let ic = open_in_bin (Filename.concat (Filename.concat dir sub) name) in
    let text =
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      really_input_string ic (in_channel_length ic)
    in
    (* Canonical form: the printer reproduces the body exactly. *)
    (match Ebrc_obs.Json.parse text with
    | Ok j ->
        Alcotest.(check string) (name ^ " canonical") text
          (Ebrc_obs.Json.print j ^ "\n")
    | Error e -> Alcotest.failf "%s: %s" name e);
    text
  in
  let awkward = "w\"1\\\195\169\n\001" in
  let escaped = {|w\"1\\é\n\u0001|} in
  Task_queue.enqueue q ~digest:"d1" ~spec:"{}";
  Task_queue.enqueue q ~digest:"d2" ~spec:"{}";
  ignore (Task_queue.claim q ~worker:awkward ~ttl:60.0 ~digest:"d1");
  let lease = body "leases" "d1.lease" in
  let deadline =
    match Ebrc_obs.Json.(Result.bind (parse lease) (decoding (str "deadline"))) with
    | Ok d -> d
    | _ -> Alcotest.failf "lease without a deadline: %s" lease
  in
  Alcotest.(check string) "lease body"
    (Printf.sprintf
       "{\"schema\":1,\"worker\":\"%s\",\"pid\":%d,\"deadline\":\"%s\"}\n"
       escaped (Unix.getpid ()) deadline)
    lease;
  Alcotest.(check string) "deadline is %h" deadline
    (Printf.sprintf "%h" (float_of_string deadline));
  Task_queue.fail q ~worker:awkward ~digest:"d1" ~message:awkward;
  Alcotest.(check string) "failure body"
    (Printf.sprintf
       "{\"schema\":1,\"digest\":\"d1\",\"worker\":\"%s\",\"message\":\"%s\"}\n"
       escaped escaped)
    (body "failed" "d1.json");
  Task_queue.poison q ~digest:"d2" ~message:awkward;
  Alcotest.(check string) "poison body"
    (Printf.sprintf "{\"schema\":1,\"digest\":\"d2\",\"message\":\"%s\"}\n"
       escaped)
    (body "poisoned" "d2.json")

let test_queue_poison_lifecycle () =
  let q = Task_queue.create ~dir:(tmp_dir "poison") () in
  Task_queue.enqueue q ~digest:"bad" ~spec:"{}";
  Task_queue.enqueue q ~digest:"good" ~spec:"{}";
  ignore (Task_queue.claim q ~worker:"w1" ~ttl:60.0 ~digest:"bad");
  Task_queue.poison q ~digest:"bad" ~message:"3 worker death(s) while leased";
  Alcotest.(check (list string)) "poisoned task dequeued" [ "good" ]
    (Task_queue.pending q);
  Alcotest.(check int) "poisoned lease dropped" 0 (Task_queue.leased q);
  (match Task_queue.poisoned q with
  | [ (d, m) ] ->
      Alcotest.(check string) "poisoned digest" "bad" d;
      Alcotest.(check string) "verdict message survives"
        "3 worker death(s) while leased" m
  | l -> Alcotest.failf "expected 1 poison record, got %d" (List.length l));
  Alcotest.check claim_tt "poisoned task is gone to claimants"
    Task_queue.Gone
    (Task_queue.claim q ~worker:"w2" ~ttl:60.0 ~digest:"bad");
  Task_queue.clear_poison q ~digest:"bad";
  Alcotest.(check (list (pair string string))) "verdict cleared" []
    (Task_queue.poisoned q);
  Task_queue.clear_poison q ~digest:"bad" (* idempotent *)

let test_queue_reclaim_worker () =
  let q = Task_queue.create ~dir:(tmp_dir "reclaim-worker") () in
  List.iter
    (fun d -> Task_queue.enqueue q ~digest:d ~spec:"{}")
    [ "a"; "b"; "c" ];
  ignore (Task_queue.claim q ~worker:"w1" ~ttl:60.0 ~digest:"a");
  ignore (Task_queue.claim q ~worker:"w1" ~ttl:60.0 ~digest:"b");
  ignore (Task_queue.claim q ~worker:"w2" ~ttl:60.0 ~digest:"c");
  Alcotest.(check (list (pair string string)))
    "lease holders visible"
    [ ("a", "w1"); ("b", "w1"); ("c", "w2") ]
    (Task_queue.lease_holders q);
  let freed = List.sort String.compare (Task_queue.reclaim_worker q ~worker:"w1") in
  Alcotest.(check (list string)) "only w1's digests freed" [ "a"; "b" ] freed;
  Alcotest.(check (list (pair string string)))
    "w2's lease untouched" [ ("c", "w2") ]
    (Task_queue.lease_holders q);
  Alcotest.check claim_tt "freed digest reclaimable" Task_queue.Claimed
    (Task_queue.claim q ~worker:"w3" ~ttl:60.0 ~digest:"a");
  Alcotest.(check (list string)) "no-op for unknown worker" []
    (Task_queue.reclaim_worker q ~worker:"ghost")

(* Cross-process contention: fork claimants racing for one digest;
   the O_EXCL protocol must elect exactly one winner. Forked before
   any domain is spawned (this binary runs no pool work first). *)
let test_queue_fork_contention () =
  let dir = tmp_dir "contention" in
  let q = Task_queue.create ~dir () in
  Task_queue.enqueue q ~digest:"prize" ~spec:"{}";
  let n = 8 in
  let pids =
    List.init n (fun i ->
        match Unix.fork () with
        | 0 ->
            let q = Task_queue.create ~dir () in
            let outcome =
              Task_queue.claim q
                ~worker:(Printf.sprintf "c%d" i)
                ~ttl:60.0 ~digest:"prize"
            in
            Unix._exit (if outcome = Task_queue.Claimed then 0 else 1)
        | pid -> pid)
  in
  let winners =
    List.fold_left
      (fun acc pid ->
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> acc + 1
        | _, Unix.WEXITED 1 -> acc
        | _ -> Alcotest.fail "claimant child died abnormally")
      0 pids
  in
  Alcotest.(check int) "exactly one winner" 1 winners;
  Alcotest.(check int) "exactly one lease file" 1 (Task_queue.leased q)

(* ------------------------------ gc_tmp ---------------------------- *)

let test_gc_tmp () =
  let dir = tmp_dir "gc" in
  let touch name =
    let oc = open_out (Filename.concat dir name) in
    output_string oc "x";
    close_out oc
  in
  touch ".stale.123.tmp";
  touch ".fresh.456.tmp";
  touch "abcdef.json";
  let old = Unix.gettimeofday () -. 7200.0 in
  Unix.utimes (Filename.concat dir ".stale.123.tmp") old old;
  Alcotest.(check int) "one stale tmp reclaimed" 1 (Rc.gc_tmp dir);
  Alcotest.(check bool) "stale gone" false
    (Sys.file_exists (Filename.concat dir ".stale.123.tmp"));
  Alcotest.(check bool) "fresh tmp survives" true
    (Sys.file_exists (Filename.concat dir ".fresh.456.tmp"));
  Alcotest.(check bool) "records survive" true
    (Sys.file_exists (Filename.concat dir "abcdef.json"));
  Alcotest.(check int) "second sweep finds nothing" 0 (Rc.gc_tmp dir);
  Alcotest.(check int) "missing dir is safe" 0
    (Rc.gc_tmp (Filename.concat dir "nope"))

(* Regression: the serve planner passes gc_tmp a threshold of 2× the
   lease ttl, so a live peer's in-flight tmp file (younger than that)
   must never be swept even when it is older than the default. *)
let test_gc_tmp_age_threshold () =
  let dir = tmp_dir "gc-age" in
  let tmp = Filename.concat dir ".peer.789.tmp" in
  let oc = open_out tmp in
  output_string oc "x";
  close_out oc;
  let age = Unix.gettimeofday () -. 3600.0 in
  Unix.utimes tmp age age;
  Alcotest.(check int) "1h-old tmp survives a 2h threshold" 0
    (Rc.gc_tmp ~max_age:7200.0 dir);
  Alcotest.(check bool) "file still present" true (Sys.file_exists tmp);
  Alcotest.(check int) "and falls to a 30min threshold" 1
    (Rc.gc_tmp ~max_age:1800.0 dir);
  Alcotest.(check bool) "file gone" false (Sys.file_exists tmp)

(* --------------------------- worker + serve ----------------------- *)

let demo_manifest = Manifest.demo ~tasks:3 ~duration:3.0 ()

let serial_store_bytes store =
  Sys.readdir store |> Array.to_list |> List.sort String.compare
  |> List.filter (fun e -> Filename.check_suffix e ".json")
  |> List.map (fun e ->
         let ic = open_in_bin (Filename.concat store e) in
         Fun.protect
           ~finally:(fun () -> close_in_noerr ic)
           (fun () -> (e, really_input_string ic (in_channel_length ic))))

let test_worker_drains_queue () =
  let root = tmp_dir "worker" in
  let qdir = Filename.concat root "queue" in
  let store = Filename.concat root "store" in
  let q = Task_queue.create ~dir:qdir () in
  let outstanding = Serve.plan ~store_dir:store ~queue:q demo_manifest in
  Alcotest.(check int) "all tasks outstanding" 3 outstanding;
  let o = Worker.run { (Worker.default ~queue_dir:qdir) with store_dir = store } in
  Alcotest.(check int) "ran all" 3 o.Worker.ran;
  Alcotest.(check int) "nothing cached" 0 o.Worker.cached;
  Alcotest.(check int) "nothing failed" 0 o.Worker.failed;
  Alcotest.(check (list string)) "queue drained" [] (Task_queue.pending q);
  (* The published store must be byte-identical to a serial in-process
     run of the same configs. *)
  let serial = Filename.concat root "serial" in
  Unix.mkdir serial 0o755;
  List.iter
    (fun cfg -> Rc.store_to ~dir:serial cfg (Scenario.run cfg))
    demo_manifest.Manifest.tasks;
  Alcotest.(check bool) "store byte-identical to serial run" true
    (serial_store_bytes store = serial_store_bytes serial);
  (* Resume: a second plan finds nothing to do; a second worker run
     over a re-primed queue completes by store lookup alone. *)
  Alcotest.(check int) "warm plan enqueues nothing" 0
    (Serve.plan ~store_dir:store ~queue:q demo_manifest);
  List.iter
    (fun cfg ->
      Task_queue.enqueue q ~digest:(Rc.digest_of_config cfg)
        ~spec:(Codec.encode cfg))
    demo_manifest.Manifest.tasks;
  let o2 =
    Worker.run { (Worker.default ~queue_dir:qdir) with store_dir = store }
  in
  Alcotest.(check int) "resume simulates nothing" 0 o2.Worker.ran;
  Alcotest.(check int) "resume completes from the store" 3 o2.Worker.cached

(* A worker SIGKILL'd mid-task strands a lease; after its ttl a second
   worker must reclaim and finish, ending with the complete result
   set, byte-identical to a serial run. *)
let test_worker_killed_recovery () =
  let root = tmp_dir "killed" in
  let qdir = Filename.concat root "queue" in
  let store = Filename.concat root "store" in
  let q = Task_queue.create ~dir:qdir () in
  ignore (Serve.plan ~store_dir:store ~queue:q demo_manifest);
  (* Child claims the first task with a short ttl and dies without
     completing it — the claim-then-SIGKILL window. *)
  let victim = List.hd (Task_queue.pending q) in
  (match Unix.fork () with
  | 0 ->
      let q = Task_queue.create ~dir:qdir () in
      ignore (Task_queue.claim q ~worker:"victim" ~ttl:0.3 ~digest:victim);
      Unix._exit 0
  | pid -> ignore (Unix.waitpid [] pid));
  Alcotest.(check int) "stranded lease present" 1 (Task_queue.leased q);
  let o =
    Worker.run
      { (Worker.default ~queue_dir:qdir) with store_dir = store; poll = 0.05 }
  in
  Alcotest.(check int) "survivor runs every task" 3 o.Worker.ran;
  Alcotest.(check int) "no failures" 0 o.Worker.failed;
  Alcotest.(check (list string)) "queue drained" [] (Task_queue.pending q);
  let serial = Filename.concat root "serial" in
  Unix.mkdir serial 0o755;
  List.iter
    (fun cfg -> Rc.store_to ~dir:serial cfg (Scenario.run cfg))
    demo_manifest.Manifest.tasks;
  Alcotest.(check bool) "recovered store byte-identical to serial" true
    (serial_store_bytes store = serial_store_bytes serial)

let test_worker_records_bad_spec () =
  let root = tmp_dir "badspec" in
  let qdir = Filename.concat root "queue" in
  let q = Task_queue.create ~dir:qdir () in
  Task_queue.enqueue q ~digest:"nonsense" ~spec:"{\"not\":\"a config\"}";
  let o = Worker.run (Worker.default ~queue_dir:qdir) in
  Alcotest.(check int) "bad spec is a failure" 1 o.Worker.failed;
  Alcotest.(check (list string)) "queue still drains" []
    (Task_queue.pending q);
  match Task_queue.failed q with
  | [ (d, _) ] -> Alcotest.(check string) "failure recorded" "nonsense" d
  | l -> Alcotest.failf "expected 1 failure, got %d" (List.length l)

let test_serve_progress_and_exit_codes () =
  let root = tmp_dir "serve" in
  let path = Filename.concat root "m.json" in
  Manifest.save ~path demo_manifest;
  let d = Serve.default ~manifest_path:path in
  let cfg = { d with Serve.workers = 0; quiet = true } in
  (* Prime-only pass: queue primed, nothing published yet. *)
  Alcotest.(check int) "prime-only exits 0" 0 (Serve.run cfg);
  let q = Task_queue.create ~dir:cfg.Serve.queue_dir () in
  let p = Serve.progress ~store_dir:cfg.Serve.store_dir ~queue:q demo_manifest in
  Alcotest.(check int) "total" 3 p.Serve.total;
  Alcotest.(check int) "queued" 3 p.Serve.queued;
  Alcotest.(check int) "published" 0 p.Serve.published;
  (* Drain in-process, then the same serve invocation is a warm resume. *)
  ignore
    (Worker.run
       {
         (Worker.default ~queue_dir:cfg.Serve.queue_dir) with
         store_dir = cfg.Serve.store_dir;
       });
  Alcotest.(check int) "warm resume exits 0" 0 (Serve.run cfg);
  let p = Serve.progress ~store_dir:cfg.Serve.store_dir ~queue:q demo_manifest in
  Alcotest.(check int) "all published" 3 p.Serve.published;
  Alcotest.(check int) "queue empty" 0 p.Serve.queued;
  Alcotest.(check int) "unreadable manifest exits 2" 2
    (Serve.run
       { cfg with Serve.manifest_path = Filename.concat root "absent.json" })

(* Regression: re-serving after a terminal failure must clear the
   stale failure record along with re-enqueueing the digest, or the
   watch loop counts it as both failed and pending and declares the
   sweep settled while the retry still runs. *)
let test_serve_replan_clears_failure () =
  let root = tmp_dir "replan" in
  let qdir = Filename.concat root "queue" in
  let store = Filename.concat root "store" in
  let q = Task_queue.create ~dir:qdir () in
  ignore (Serve.plan ~store_dir:store ~queue:q demo_manifest);
  let victim = List.hd (Task_queue.pending q) in
  Task_queue.fail q ~worker:"w" ~digest:victim ~message:"boom";
  let p = Serve.progress ~store_dir:store ~queue:q demo_manifest in
  Alcotest.(check int) "failure recorded" 1 p.Serve.failed;
  Alcotest.(check int) "re-plan re-enqueues the failed digest" 3
    (Serve.plan ~store_dir:store ~queue:q demo_manifest);
  let p = Serve.progress ~store_dir:store ~queue:q demo_manifest in
  Alcotest.(check int) "stale failure record cleared" 0 p.Serve.failed;
  Alcotest.(check int) "all tasks queued" 3 p.Serve.queued

(* The supervisor's count trusts a record once seen; only [verify]
   re-checks it, which is what catches a record lost after counting. *)
let test_serve_incremental_progress () =
  let root = tmp_dir "watch" in
  let store = Filename.concat root "store" in
  let q = Task_queue.create ~dir:(Filename.concat root "queue") () in
  ignore (Serve.plan ~store_dir:store ~queue:q demo_manifest);
  let w = Serve.watch ~store_dir:store ~queue:q demo_manifest in
  Alcotest.(check int) "nothing published yet" 0 (Serve.poll w).Serve.published;
  let cfg = List.hd demo_manifest.Manifest.tasks in
  Rc.store_to ~dir:store cfg (Scenario.run cfg);
  Alcotest.(check int) "record published between polls is counted" 1
    (Serve.poll w).Serve.published;
  Sys.remove (Filename.concat store (Rc.digest_of_config cfg ^ ".json"));
  Alcotest.(check int) "incremental poll keeps the counted record" 1
    (Serve.poll w).Serve.published;
  Alcotest.(check int) "full pass catches the lost record" 0
    (Serve.verify w).Serve.published;
  Alcotest.(check int) "and the next poll agrees" 0
    (Serve.poll w).Serve.published

let test_worker_rescan_period () =
  let cap = 0.2 in
  Alcotest.(check (float 0.0)) "cap before any sample" cap
    (Worker.rescan_period ~cap ~service:None);
  Alcotest.(check (float 1e-12)) "tracks service / 8" 0.005
    (Worker.rescan_period ~cap ~service:(Some 0.04));
  Alcotest.(check (float 0.0)) "floored at 2 ms" 0.002
    (Worker.rescan_period ~cap ~service:(Some 0.001));
  Alcotest.(check (float 0.0)) "never above the cap" cap
    (Worker.rescan_period ~cap ~service:(Some 100.0));
  List.iter
    (fun s ->
      let r = Worker.rescan_period ~cap ~service:(Some s) in
      Alcotest.(check bool)
        (Printf.sprintf "service %g within [2 ms, cap]" s)
        true
        (r >= 0.002 && r <= cap))
    [ 0.0; 1e-6; 0.016; 0.5; 1.6; 1.7; 1e9 ]

(* Each simulated task's done record carries its compute and publish
   wall time, and the status reader still folds the stream. *)
let test_worker_phase_latency () =
  let root = tmp_dir "phases" in
  let qdir = Filename.concat root "queue" in
  let store = Filename.concat root "store" in
  let q = Task_queue.create ~dir:qdir () in
  ignore (Serve.plan ~store_dir:store ~queue:q demo_manifest);
  let path = Filename.concat root "worker.jsonl" in
  Ebrc.Telemetry_stream.enable ~path ~period_sim:1.0 ~period_wall:0.5;
  let o =
    Fun.protect ~finally:Ebrc.Telemetry_stream.disable (fun () ->
        let o =
          Worker.run { (Worker.default ~queue_dir:qdir) with store_dir = store }
        in
        Ebrc.Telemetry_stream.finalize ();
        o)
  in
  Alcotest.(check int) "ran all" 3 o.Worker.ran;
  let lines =
    let ic = open_in_bin path in
    let body =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    String.split_on_char '\n' body |> List.filter (fun l -> l <> "")
  in
  let module J = Ebrc_obs.Json in
  let dones =
    List.filter_map
      (fun l ->
        match J.parse l with
        | Ok j
          when J.decoding (J.str "type") j = Ok "task"
               && J.decoding (J.str "phase") j = Ok "done" ->
            Some j
        | _ -> None)
      lines
  in
  Alcotest.(check int) "one done record per task" 3 (List.length dones);
  List.iter
    (fun j ->
      List.iter
        (fun attr ->
          match J.decoding (J.num attr) j with
          | Ok x ->
              Alcotest.(check bool) (attr ^ " non-negative") true (x >= 0.0)
          | _ -> Alcotest.failf "done record lacks numeric %s" attr)
        [ "compute_s"; "publish_s" ])
    dones;
  let view = Ebrc_obs.Status.of_lines lines in
  Alcotest.(check (list string)) "status folds every task to done"
    [ "done"; "done"; "done" ]
    (List.map (fun r -> r.Ebrc_obs.Status.phase) view.Ebrc_obs.Status.tasks)

let test_serve_backoff () =
  Alcotest.(check (float 1e-9)) "first respawn" 0.5 (Serve.backoff 0);
  Alcotest.(check (float 1e-9)) "doubles" 1.0 (Serve.backoff 1);
  Alcotest.(check (float 1e-9)) "doubles again" 2.0 (Serve.backoff 2);
  Alcotest.(check (float 1e-9)) "caps at 15s" 15.0 (Serve.backoff 10);
  Alcotest.(check (float 1e-9)) "stays capped" 15.0 (Serve.backoff 60);
  let rec monotone n =
    n > 12 || (Serve.backoff n <= Serve.backoff (n + 1) && monotone (n + 1))
  in
  Alcotest.(check bool) "monotone nondecreasing" true (monotone 0)

let () =
  Alcotest.run "serve"
    [
      ( "manifest",
        [
          Alcotest.test_case "roundtrip" `Quick test_manifest_roundtrip;
          Alcotest.test_case "large seeds exact" `Quick
            test_manifest_large_seeds;
          Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "codec injective" `Quick test_codec_injective;
          Alcotest.test_case "codec omits absent hop" `Quick
            test_codec_omits_absent_hop;
          Alcotest.test_case "file io" `Quick test_manifest_file_io;
          Alcotest.test_case "rejects junk" `Quick test_manifest_rejects_junk;
        ] );
      ( "task_queue",
        [
          Alcotest.test_case "basics" `Quick test_queue_basics;
          Alcotest.test_case "expired lease reclaim" `Quick
            test_queue_expired_lease_reclaim;
          Alcotest.test_case "torn lease" `Quick test_queue_torn_lease;
          Alcotest.test_case "unreadable deadline" `Quick
            test_queue_unreadable_deadline;
          Alcotest.test_case "torn-grace config" `Quick
            test_queue_torn_grace_config;
          Alcotest.test_case "poison lifecycle" `Quick
            test_queue_poison_lifecycle;
          Alcotest.test_case "record bodies" `Quick test_queue_record_bodies;
          Alcotest.test_case "reclaim worker" `Quick test_queue_reclaim_worker;
          Alcotest.test_case "fork contention" `Quick
            test_queue_fork_contention;
        ] );
      ( "gc",
        [
          Alcotest.test_case "store tmp gc" `Quick test_gc_tmp;
          Alcotest.test_case "age threshold" `Quick test_gc_tmp_age_threshold;
        ] );
      ( "worker",
        [
          Alcotest.test_case "drains queue" `Quick test_worker_drains_queue;
          Alcotest.test_case "killed-worker recovery" `Quick
            test_worker_killed_recovery;
          Alcotest.test_case "bad spec" `Quick test_worker_records_bad_spec;
          Alcotest.test_case "rescan period" `Quick test_worker_rescan_period;
          Alcotest.test_case "phase latency attrs" `Quick
            test_worker_phase_latency;
        ] );
      ( "serve",
        [
          Alcotest.test_case "progress and exit codes" `Quick
            test_serve_progress_and_exit_codes;
          Alcotest.test_case "restart backoff" `Quick test_serve_backoff;
          Alcotest.test_case "re-plan clears failure" `Quick
            test_serve_replan_clears_failure;
          Alcotest.test_case "incremental progress" `Quick
            test_serve_incremental_progress;
        ] );
    ]
