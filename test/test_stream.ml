(* Tests for the live observability service: the streamed delta
   records' telescoping invariant (summed deltas == final snapshot),
   the -j1 vs -j4 byte-identity contract, the JSONL schema, the
   flight recorder, and the `ebrc status` reader over real streams. *)

module Tm = Ebrc.Telemetry
module Stream = Ebrc.Telemetry_stream
module Flight = Ebrc.Telemetry_flight
module Pool = Ebrc.Pool
module J = Ebrc_obs.Json

let scrub () =
  Stream.disable ();
  Tm.set_enabled false;
  Tm.reset ()

(* A scenario quick enough to run repeatedly but long enough for the
   0.5 s sampler to fire several times. *)
let cfg seed =
  {
    Ebrc.Scenario.default_config with
    n_tfrc = 1;
    n_tcp = 1;
    queue = Ebrc.Scenario.Drop_tail { capacity = 50 };
    duration = 4.0;
    warmup = 1.0;
    seed;
  }

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let lines_of path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> l <> "")

let parse line =
  match J.parse line with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparsable stream line (%s): %s" e line

let record_type j =
  match J.member "type" j with Some (J.Str t) -> t | _ -> "?"

(* Every writer's output is in the printer's canonical form. *)
let canonical line =
  Alcotest.(check string) "print (parse line) = line" line
    (J.print (parse line))

(* A name every string escape applies to, and floats whose shortest
   round-trip form differs from a fixed-precision one. *)
let awkward = "q\"b\\n\n\001\195\169"
let awkward_floats = [ 0.1; 1.0 /. 3.0; nan; 1e300 ]

(* One record of every stream type, each carrying [awkward] names and
   [awkward_floats]; returns the finalized lines. *)
let awkward_stream () =
  scrub ();
  let path = Filename.temp_file "ebrc_stream_awkward" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path; scrub ()) @@ fun () ->
  Tm.set_enabled true;
  (* A wall period no tick reaches: only finalize's closing progress
     record is written. *)
  Stream.enable ~path ~period_sim:1.0 ~period_wall:1e12;
  Atomic.incr (Tm.Probe.count ("test.stream." ^ awkward));
  let floats =
    List.mapi (fun i v -> (Printf.sprintf "f%d" i, J.Num v)) awkward_floats
  in
  Stream.manifest ~cmd:awkward ~attrs:((awkward, J.Str awkward) :: floats) ();
  Stream.figure_event ~id:awkward ~phase:"start" ();
  Stream.figure_event ~id:awkward ~phase:"done" ~tables:2 ();
  Stream.task ~key:awkward ~phase:"leased" ();
  Stream.task ~key:awkward ~phase:"done" ~attrs:floats ();
  let probes = Tm.Probe.create () in
  let n = ref 0 in
  Tm.Probe.add probes
    (Tm.Probe.counter ("test.stream.c." ^ awkward))
    (fun () -> !n);
  Tm.Probe.add probes (Tm.Probe.gauge ("test.stream.g." ^ awkward)) (fun () ->
      7);
  let run = Stream.run_start ~key:awkward probes in
  List.iteri
    (fun i t_sim ->
      n := !n + i + 1;
      Stream.sample run ~t_sim ~events:(10 * (i + 1)) ~pending:i)
    awkward_floats;
  Stream.run_end run ~t_sim:1e300 ~events:50 ~pending:0 ~ok:true;
  Stream.finalize ();
  lines_of path

(* Run one streamed scenario and return (stream lines, counter-kind
   snapshot totals by name, gauge+histogram sample counts by name). *)
let streamed_run () =
  scrub ();
  let path = Filename.temp_file "ebrc_stream_test" ".jsonl" in
  Tm.set_enabled true;
  Stream.enable ~path ~period_sim:0.5 ~period_wall:0.0;
  ignore (Ebrc.Scenario.run (cfg 42));
  let snap = Tm.snapshot () in
  Stream.finalize ();
  scrub ();
  let ls = lines_of path in
  Sys.remove path;
  (ls, snap)

let section_ints j section =
  match J.member section j with
  | Some (J.Obj kvs) ->
      List.map
        (fun (name, v) ->
          match J.to_int v with
          | Some d -> (name, d)
          | None -> Alcotest.failf "non-integer %s value for %s" section name)
        kvs
  | _ -> []

let test_deltas_sum_to_snapshot () =
  let lines, snap = streamed_run () in
  (* Counter deltas telescope: per streamed name, the sum over every
     delta + run_end record equals the final snapshot's count
     exactly. *)
  let totals : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let n_deltas = ref 0 in
  let last_levels = ref [] in
  List.iter
    (fun line ->
      let j = parse line in
      match record_type j with
      | ("delta" | "run_end") as ty ->
          incr n_deltas;
          List.iter
            (fun (name, d) ->
              Hashtbl.replace totals name
                (d + Option.value ~default:0 (Hashtbl.find_opt totals name)))
            (section_ints j "counters");
          let levels = section_ints j "gauges" in
          List.iter
            (fun (name, v) ->
              if v < 0 then Alcotest.failf "negative level %d for %s" v name)
            levels;
          if ty = "run_end" then last_levels := levels
      | _ -> ())
    lines;
  Alcotest.(check bool) "several sampled records" true (!n_deltas >= 3);
  Alcotest.(check bool) "streamed some counters" true
    (Hashtbl.length totals > 0);
  let find name =
    match List.find_opt (fun s -> s.Tm.snap_name = name) snap with
    | Some s -> s
    | None -> Alcotest.failf "streamed metric %s missing from snapshot" name
  in
  Hashtbl.iter
    (fun name total ->
      Alcotest.(check int)
        (name ^ " deltas sum to final snapshot")
        (find name).Tm.count total)
    totals;
  (* Gauges are levels. The engine records one per run call into the
     totals — Scenario.run makes two, warmup and measurement — and the
     run_end record streams the last of them. *)
  Alcotest.(check bool) "run_end carries gauge levels" true
    (!last_levels <> []);
  List.iter
    (fun (name, level) ->
      let s = find name in
      Alcotest.(check int) (name ^ " levels recorded") 2 s.Tm.count;
      Alcotest.(check bool)
        (Printf.sprintf "%s run_end level %d is a recorded level" name level)
        true
        (float_of_int level = s.Tm.min_v || float_of_int level = s.Tm.max_v))
    !last_levels

(* The counters sections of this streamed run, pinned to their digest.
   It was first taken from the push-counter implementation the probes
   replaced (the probes reproduce every value at every sample), and
   re-taken when the link's events moved onto engine lanes, which
   changed [wheel.pushed] and no other value. *)
let test_counter_sections_pinned () =
  let lines, _ = streamed_run () in
  let sections =
    List.filter_map
      (fun line ->
        match record_type (parse line) with
        | "delta" | "run_end" -> (
            let key = "\"counters\":{" in
            let n = String.length key in
            let rec find i =
              if i + n > String.length line then None
              else if String.sub line i n = key then Some i
              else find (i + 1)
            in
            match find 0 with
            | Some i -> Some (String.sub line i (String.index_from line i '}' - i + 1))
            | None -> Some "")
        | _ -> None)
      lines
  in
  Alcotest.(check int) "sampled records" 8 (List.length sections);
  Alcotest.(check string) "counters sections digest"
    "f552ff3362434ffabae7debb06dc3b59"
    (Digest.to_hex (Digest.string (String.concat "\n" sections)))

let test_stream_schema () =
  let lines, _ = streamed_run () in
  Alcotest.(check bool) "has lines" true (List.length lines >= 4);
  (match lines with
  | first :: _ -> (
      let j = parse first in
      Alcotest.(check string) "first line is meta" "meta" (record_type j);
      match J.member "schema" j with
      | Some (J.Int _) -> ()
      | _ -> Alcotest.fail "meta line missing schema")
  | [] -> Alcotest.fail "empty stream");
  (match List.rev lines with
  | last :: _ ->
      Alcotest.(check string) "last line is stream_end" "stream_end"
        (record_type (parse last))
  | [] -> ());
  let seen_end = ref false in
  List.iter
    (fun line ->
      let j = parse line in
      match record_type j with
      | "delta" | "run_end" as ty ->
          List.iter
            (fun k ->
              if J.member k j = None then
                Alcotest.failf "%s record missing %S: %s" ty k line)
            [ "run"; "seq"; "t_sim"; "d_events"; "pending" ];
          if ty = "run_end" then begin
            seen_end := true;
            match J.member "ok" j with
            | Some (J.Bool _) -> ()
            | _ -> Alcotest.fail "run_end missing ok"
          end
      | "run_start" ->
          if J.member "run" j = None then
            Alcotest.fail "run_start missing run key"
      | "meta" | "stream_end" -> ()
      | other -> Alcotest.failf "unexpected record type %S" other)
    lines;
  Alcotest.(check bool) "run_end present" true !seen_end;
  List.iter canonical lines;
  let awkward_lines = awkward_stream () in
  List.iter canonical awkward_lines;
  Alcotest.(check (list string)) "every record type, in canonical order"
    [ "meta"; "manifest"; "figure"; "figure"; "task"; "task"; "progress";
      "run_start"; "delta"; "delta"; "delta"; "delta"; "run_end";
      "stream_end" ]
    (List.map (fun l -> record_type (parse l)) awkward_lines)

(* The -j determinism contract: the same six scenarios streamed under
   a 1-domain and a 4-domain pool must produce byte-identical files
   (wall progress off; finalize canonicalises run interleaving). The
   last two differ from the first two only in [reverse_jitter] and
   [background], so their runs must still get keys of their own. *)
let stream_configs =
  List.init 4 (fun i -> cfg (100 + i))
  @ [
      { (cfg 100) with Ebrc.Scenario.reverse_jitter = 0.3 };
      {
        (cfg 101) with
        Ebrc.Scenario.background =
          Some (Ebrc.Scenario.default_background ~flows:100);
      };
    ]

let stream_bytes ~domains =
  scrub ();
  let path = Filename.temp_file "ebrc_stream_j" ".jsonl" in
  Tm.set_enabled true;
  Stream.enable ~path ~period_sim:0.5 ~period_wall:0.0;
  let configs = Array.of_list stream_configs in
  Pool.with_pool ~domains (fun pool ->
      ignore
        (Pool.init pool (Array.length configs) (fun i ->
             ignore (Ebrc.Scenario.run configs.(i));
             i)));
  Stream.finalize ();
  scrub ();
  let s = read_file path in
  Sys.remove path;
  s

let test_stream_j1_vs_j4 () =
  let s1 = stream_bytes ~domains:1 in
  let s4 = stream_bytes ~domains:4 in
  Alcotest.(check bool) "non-trivial stream" true (String.length s1 > 200);
  Alcotest.(check string) "byte-identical across -j" s1 s4;
  let keys =
    String.split_on_char '\n' s1
    |> List.filter_map (fun l ->
           if l = "" then None
           else
             let j = parse l in
             match (record_type j, J.member "run" j) with
             | "run_start", Some (J.Str k) -> Some k
             | _ -> None)
  in
  Alcotest.(check int) "one run per config" (List.length stream_configs)
    (List.length keys);
  Alcotest.(check int) "one key per distinct config"
    (List.length stream_configs)
    (List.length (List.sort_uniq String.compare keys))

(* Finalize's canonical order on a shuffled multi-run stream: four
   interleaved runs (one key with an escaped quote, one with seqs past
   9) among non-run records that must keep their places. The output
   digest is pinned to the bytes the previous (allocating) scanner
   wrote for this fixture, and the order is re-derived from parsed
   records as a reference. *)
let finalize_fixture =
  [
    {|{"type":"meta","schema":1,"source":"ebrc_stream"}|};
    {|{"type":"run_end","run":"s1:n1+1:d4:w1:dt50","seq":5,"t_sim":4,"d_events":1,"pending":0,"ok":true,"counters":{"sim.events_fired":1}}|};
    {|{"type":"run_end","run":"s3:n1+0:d9:w1:dt9","seq":13,"t_sim":13,"d_events":0,"pending":0,"ok":false}|};
    {|{"type":"delta","run":"s2:n2+2+p:d4:w1:reda0:f","seq":1,"t_sim":0.5,"d_events":7,"pending":3,"counters":{"sim.events_fired":7}}|};
    {|{"type":"manifest","cmd":"figure","id":"fig3"}|};
    {|{"type":"delta","run":"a\"q","seq":1,"t_sim":0.5,"d_events":7,"pending":3,"counters":{"sim.events_fired":7}}|};
    {|{"type":"delta","run":"s2:n2+2+p:d4:w1:reda0:f","seq":4,"t_sim":2,"d_events":28,"pending":3,"counters":{"sim.events_fired":28}}|};
    {|{"type":"run_end","run":"s10:n1+1:d4:w1:dt50","seq":4,"t_sim":4,"d_events":1,"pending":0,"ok":true,"counters":{"sim.events_fired":1}}|};
    {|{"type":"delta","run":"s3:n1+0:d9:w1:dt9","seq":8,"t_sim":8,"d_events":1,"pending":1}|};
    {|{"type":"run_end","run":"a\"q","seq":3,"t_sim":4,"d_events":1,"pending":0,"ok":true,"counters":{"sim.events_fired":1}}|};
    {|{"type":"delta","run":"s10:n1+1:d4:w1:dt50","seq":2,"t_sim":1,"d_events":14,"pending":3,"counters":{"sim.events_fired":14}}|};
    {|{"type":"progress","t_wall":1.5,"counters":{"sim.events_fired":10}}|};
    {|{"type":"run_start","run":"s2:n2+2+p:d4:w1:reda0:f","seq":0}|};
    {|{"type":"delta","run":"a\"q","seq":2,"t_sim":1,"d_events":14,"pending":3,"counters":{"sim.events_fired":14}}|};
    {|{"type":"run_start","run":"s1:n1+1:d4:w1:dt50","seq":0}|};
    {|{"type":"delta","run":"s3:n1+0:d9:w1:dt9","seq":6,"t_sim":6,"d_events":1,"pending":1}|};
    {|{"type":"delta","run":"s2:n2+2+p:d4:w1:reda0:f","seq":3,"t_sim":1.5,"d_events":21,"pending":3,"counters":{"sim.events_fired":21}}|};
    {|{"type":"delta","run":"s10:n1+1:d4:w1:dt50","seq":3,"t_sim":1.5,"d_events":21,"pending":3,"counters":{"sim.events_fired":21}}|};
    {|{"type":"run_start","run":"a\"q","seq":0}|};
    {|{"type":"run_start","run":"s3:n1+0:d9:w1:dt9","seq":0}|};
    {|{"type":"figure","id":"fig3","phase":"start","t_wall":1.25}|};
    {|{"type":"delta","run":"s3:n1+0:d9:w1:dt9","seq":9,"t_sim":9,"d_events":1,"pending":1}|};
    {|{"type":"delta","run":"s3:n1+0:d9:w1:dt9","seq":5,"t_sim":5,"d_events":1,"pending":1}|};
    {|{"type":"delta","run":"s3:n1+0:d9:w1:dt9","seq":2,"t_sim":2,"d_events":1,"pending":1}|};
    {|{"type":"run_end","run":"s2:n2+2+p:d4:w1:reda0:f","seq":6,"t_sim":4,"d_events":1,"pending":0,"ok":true,"counters":{"sim.events_fired":1}}|};
    {|{"type":"delta","run":"s3:n1+0:d9:w1:dt9","seq":10,"t_sim":10,"d_events":1,"pending":1}|};
    {|{"type":"delta","run":"s10:n1+1:d4:w1:dt50","seq":1,"t_sim":0.5,"d_events":7,"pending":3,"counters":{"sim.events_fired":7}}|};
    {|{"type":"delta","run":"s3:n1+0:d9:w1:dt9","seq":4,"t_sim":4,"d_events":1,"pending":1}|};
    {|{"type":"delta","run":"s3:n1+0:d9:w1:dt9","seq":3,"t_sim":3,"d_events":1,"pending":1}|};
    {|{"type":"task","id":"abc","phase":"done","t_wall":2.5,"run":"zzz"}|};
    {|{"type":"delta","run":"s2:n2+2+p:d4:w1:reda0:f","seq":2,"t_sim":1,"d_events":14,"pending":3,"counters":{"sim.events_fired":14}}|};
    {|{"type":"delta","run":"s1:n1+1:d4:w1:dt50","seq":2,"t_sim":1,"d_events":14,"pending":3,"counters":{"sim.events_fired":14}}|};
    {|{"type":"delta","run":"s1:n1+1:d4:w1:dt50","seq":1,"t_sim":0.5,"d_events":7,"pending":3,"counters":{"sim.events_fired":7}}|};
    {|{"type":"delta","run":"s3:n1+0:d9:w1:dt9","seq":11,"t_sim":11,"d_events":1,"pending":1}|};
    {|{"type":"delta","run":"s2:n2+2+p:d4:w1:reda0:f","seq":5,"t_sim":2.5,"d_events":35,"pending":3,"counters":{"sim.events_fired":35}}|};
    {|{"type":"delta","run":"s3:n1+0:d9:w1:dt9","seq":7,"t_sim":7,"d_events":1,"pending":1}|};
    {|{"type":"delta","run":"s1:n1+1:d4:w1:dt50","seq":3,"t_sim":1.5,"d_events":21,"pending":3,"counters":{"sim.events_fired":21}}|};
    {|{"type":"delta","run":"s3:n1+0:d9:w1:dt9","seq":1,"t_sim":1,"d_events":1,"pending":1}|};
    {|{"type":"figure","id":"fig3","phase":"done","t_wall":3.5,"tables":2}|};
    {|{"type":"run_start","run":"s10:n1+1:d4:w1:dt50","seq":0}|};
    {|{"type":"delta","run":"s3:n1+0:d9:w1:dt9","seq":12,"t_sim":12,"d_events":1,"pending":1}|};
    {|{"type":"delta","run":"s1:n1+1:d4:w1:dt50","seq":4,"t_sim":2,"d_events":28,"pending":3,"counters":{"sim.events_fired":28}}|};
  ]

let test_finalize_fixture () =
  scrub ();
  let path = Filename.temp_file "ebrc_finalize" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  List.iter (fun l -> output_string oc (l ^ "\n")) finalize_fixture;
  close_out oc;
  Stream.enable ~path ~period_sim:0.0 ~period_wall:0.0;
  Stream.finalize ();
  let out = read_file path in
  Alcotest.(check string) "finalized bytes digest"
    "850921389a88f02d42ddb46a77b9e70f"
    (Digest.to_hex (Digest.string out));
  let rank j =
    match record_type j with
    | "run_start" -> Some 0
    | "delta" -> Some 1
    | "run_end" -> Some 2
    | _ -> None
  in
  let fixed, runs =
    List.partition (fun l -> rank (parse l) = None) finalize_fixture
  in
  let key l =
    let j = parse l in
    ( Option.get (Option.bind (J.member "run" j) J.to_string),
      Option.get (Option.bind (J.member "seq" j) J.to_int),
      Option.get (rank j) )
  in
  let runs = List.stable_sort (fun a b -> compare (key a) (key b)) runs in
  Alcotest.(check (list string)) "fixed records, then runs by (key, seq, rank)"
    (fixed @ runs @ [ "{\"type\":\"stream_end\"}" ])
    (lines_of path)

(* The serve supervisor's incremental fold: a real stream with task and
   progress records spliced in, plus a torn last line, fed in chunks of
   several sizes. After every chunk each field the progress line and
   the fleet merge read equals Status.read_file's of the bytes fed so
   far, while the run records are skipped undecoded (no run rows). *)
let test_status_tail_fold () =
  let module S = Ebrc_obs.Status in
  let lines, _ = streamed_run () in
  let task id phase t =
    J.print
      (J.Obj
         [ ("type", J.Str "task"); ("id", J.Str id); ("phase", J.Str phase);
           ("t_wall", J.Num t) ])
  in
  let progress t events tasks =
    J.print
      (J.Obj
         [ ("type", J.Str "progress"); ("t_wall", J.Num t);
           ( "counters",
             J.Obj
               [ ("pool.tasks", J.Int tasks);
                 ("pool.tasks_submitted", J.Int 4);
                 ("sim.events_fired", J.Int events) ] ) ])
  in
  let n = List.length lines in
  let spliced =
    List.concat
      (List.mapi
         (fun i l ->
           if i = 1 then [ task "a" "leased" 10.0; progress 10.0 0 0; l ]
           else if i = n / 2 then
             [ task "a" "done" 10.5; task "b" "leased" 10.5;
               progress 10.5 4000 1; l ]
           else if i = n - 1 then [ progress 11.25 9000 2; l ]
           else [ l ])
         lines)
  in
  let bytes =
    String.concat "\n" spliced ^ "\n{\"type\":\"progress\",\"t_w"
  in
  let path = Filename.temp_file "ebrc_tail" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let view_of_prefix n =
    let oc = open_out_bin path in
    output_string oc (String.sub bytes 0 n);
    close_out oc;
    match S.read_file path with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  let rows (v : S.view) =
    List.map (fun (r : S.figure_row) -> (r.S.fig_id, r.S.phase)) v.S.tasks
  in
  let same what (a : S.view) (b : S.view) =
    Alcotest.(check (list (pair string string))) (what ^ " tasks")
      (rows a) (rows b);
    Alcotest.(check (list (pair string int))) (what ^ " counters")
      a.S.counters b.S.counters;
    List.iter
      (fun (name, x, y) ->
        Alcotest.(check bool) (what ^ " " ^ name) true (Float.equal x y))
      [ ("event_rate", a.S.event_rate, b.S.event_rate);
        ("task_rate", a.S.task_rate, b.S.task_rate);
        ("eta", a.S.eta, b.S.eta);
        ("t_progress", a.S.t_progress, b.S.t_progress) ];
    Alcotest.(check bool) (what ^ " finished") a.S.finished b.S.finished;
    Alcotest.(check int) (what ^ " no run rows") 0 (List.length b.S.runs)
  in
  List.iter
    (fun chunk ->
      let t = S.tail () in
      let fed = ref 0 in
      while !fed < String.length bytes do
        let k = min chunk (String.length bytes - !fed) in
        S.feed t (String.sub bytes !fed k);
        fed := !fed + k;
        if chunk >= 64 || !fed = String.length bytes then
          same
            (Printf.sprintf "chunk %d at byte %d" chunk !fed)
            (view_of_prefix !fed) (S.tail_view t)
      done;
      let v = S.tail_view t in
      Alcotest.(check int) "torn tail skipped" 1 v.S.skipped;
      Alcotest.(check int) "two task rows" 2 (List.length v.S.tasks);
      Alcotest.(check bool) "event rate from first and last progress" true
        (Float.equal v.S.event_rate (9000.0 /. 1.25));
      Alcotest.(check bool) "finished" true v.S.finished)
    [ 1; 7; 64; 333; String.length bytes ]

let test_flight_dump_on_budget () =
  scrub ();
  Tm.set_enabled true;
  Flight.set_dir (Filename.get_temp_dir_name ());
  Flight.set_enabled true;
  Ebrc.Engine.set_sim_budget (Some 0.5);
  Fun.protect
    ~finally:(fun () ->
      Ebrc.Engine.set_sim_budget None;
      Flight.set_enabled false;
      Flight.set_dir ".";
      scrub ())
  @@ fun () ->
  (match Ebrc.Scenario.run (cfg 7) with
  | _ -> Alcotest.fail "expected Budget_exceeded"
  | exception Ebrc.Engine.Budget_exceeded _ -> ());
  match Flight.last_dump () with
  | None -> Alcotest.fail "watchdog abort left no flight dump"
  | Some p ->
      Fun.protect ~finally:(fun () -> Sys.remove p)
      @@ fun () ->
      let lines = lines_of p in
      (match lines with
      | first :: _ -> (
          let j = parse first in
          Alcotest.(check string) "first line is flight header" "flight"
            (record_type j);
          (match J.member "reason" j with
          | Some (J.Str "engine.budget") -> ()
          | _ -> Alcotest.fail "dump reason is not engine.budget");
          match J.member "exn" j with
          | Some (J.Str _) -> ()
          | _ -> Alcotest.fail "dump missing exn")
      | [] -> Alcotest.fail "empty flight dump");
      List.iter canonical lines;
      (* The postmortem carries the merged metric snapshot. *)
      Alcotest.(check bool) "snapshot lines present" true
        (List.exists (fun l -> record_type (parse l) = "counter") lines)

let test_flight_dedups_same_exn () =
  scrub ();
  Flight.set_dir (Filename.get_temp_dir_name ());
  Flight.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Flight.set_enabled false;
      Flight.set_dir ".";
      scrub ())
  @@ fun () ->
  let e = Failure awkward in
  Flight.on_exn ~reason:"test.first" ~attrs:[ (awkward, awkward) ] e;
  let p1 = Flight.last_dump () in
  Flight.on_exn ~reason:"test.second" e;
  let p2 = Flight.last_dump () in
  (match p1 with
  | Some p ->
      let header = List.hd (lines_of p) in
      Sys.remove p;
      canonical header;
      Alcotest.(check (option string)) "header attr" (Some awkward)
        (Option.bind (J.member awkward (parse header)) J.to_string)
  | None -> Alcotest.fail "first on_exn produced no dump");
  Alcotest.(check bool) "same exception dumps once" true (p1 = p2)

let test_status_view () =
  let lines, _ = streamed_run () in
  let v = Ebrc_obs.Status.of_lines lines in
  Alcotest.(check bool) "finished" true v.Ebrc_obs.Status.finished;
  Alcotest.(check int) "no skipped lines" 0 v.Ebrc_obs.Status.skipped;
  (match v.Ebrc_obs.Status.runs with
  | [ r ] ->
      Alcotest.(check bool) "run ended" true r.Ebrc_obs.Status.ended;
      Alcotest.(check bool) "run ok" true r.Ebrc_obs.Status.run_ok;
      Alcotest.(check bool) "events accumulated" true
        (r.Ebrc_obs.Status.events > 0);
      Alcotest.(check bool) "sampled to the end" true
        (r.Ebrc_obs.Status.t_sim > 3.0)
  | rs -> Alcotest.failf "expected 1 run row, got %d" (List.length rs));
  (* A torn tail (mid-write read) is skipped, not fatal. *)
  let torn = Ebrc_obs.Status.of_lines (lines @ [ "{\"type\":\"del" ]) in
  Alcotest.(check int) "torn tail skipped" 1 torn.Ebrc_obs.Status.skipped;
  (* The machine rendering carries the view. *)
  let rendered = J.print (Ebrc_obs.Status.to_json v) in
  canonical rendered;
  match J.member "finished" (parse rendered) with
  | Some (J.Bool true) -> ()
  | _ -> Alcotest.fail "to_json finished flag wrong"

(* Manifest and task values with every string escape in them fold back
   to the same values: none of the lines is skipped as unparsable. *)
let test_status_awkward_values () =
  let module S = Ebrc_obs.Status in
  let v = S.of_lines (awkward_stream ()) in
  Alcotest.(check int) "no skipped lines" 0 v.S.skipped;
  Alcotest.(check (option string)) "manifest cmd" (Some awkward)
    (List.assoc_opt "cmd" v.S.manifest);
  Alcotest.(check (option string)) "manifest attr" (Some awkward)
    (List.assoc_opt awkward v.S.manifest);
  Alcotest.(check (list string)) "task and figure ids" [ awkward; awkward ]
    (List.map (fun r -> r.S.fig_id) (v.S.tasks @ v.S.figures));
  Alcotest.(check (list string)) "run key" [ awkward ]
    (List.map (fun r -> r.S.run_key) v.S.runs);
  canonical (J.print (S.to_json v))

(* Task lifecycle records (the sweep-service worker's stream) and the
   multi-worker merge the serve watcher builds on. *)
let test_status_tasks_and_merge () =
  let module S = Ebrc_obs.Status in
  let worker n lines =
    S.of_lines
      ([
         Printf.sprintf
           "{\"type\":\"manifest\",\"cmd\":\"worker\",\"worker\":\"w%d\"}" n;
       ]
      @ lines)
  in
  let v1 =
    worker 1
      [
        "{\"type\":\"task\",\"id\":\"aaa\",\"phase\":\"leased\",\"t_wall\":1.0}";
        "{\"type\":\"task\",\"id\":\"aaa\",\"phase\":\"done\",\"t_wall\":3.5}";
        "{\"type\":\"progress\",\"t_wall\":3.5,\"counters\":{\"task_queue.claims\":1}}";
        "{\"type\":\"stream_end\"}";
      ]
  in
  let v2 =
    worker 2
      [
        "{\"type\":\"task\",\"id\":\"bbb\",\"phase\":\"leased\",\"t_wall\":1.2}";
        "{\"type\":\"task\",\"id\":\"bbb\",\"phase\":\"failed\",\"t_wall\":2.0}";
        "{\"type\":\"progress\",\"t_wall\":4.0,\"counters\":{\"task_queue.claims\":2,\"task_queue.failed\":1}}";
      ]
  in
  (match v1.S.tasks with
  | [ t ] ->
      Alcotest.(check string) "task id" "aaa" t.S.fig_id;
      Alcotest.(check string) "latest phase" "done" t.S.phase;
      Alcotest.(check bool) "t_start anchors at the lease" true
        (t.S.t_start = 1.0 && t.S.t_last = 3.5)
  | ts -> Alcotest.failf "expected 1 task row, got %d" (List.length ts));
  let m = S.merge [ v1; v2 ] in
  Alcotest.(check int) "rows concatenate" 2 (List.length m.S.tasks);
  Alcotest.(check (option int)) "counters sum by key" (Some 3)
    (List.assoc_opt "task_queue.claims" m.S.counters);
  Alcotest.(check (option int)) "singleton counters survive" (Some 1)
    (List.assoc_opt "task_queue.failed" m.S.counters);
  Alcotest.(check bool) "fleet unfinished while any member is" false
    m.S.finished;
  Alcotest.(check bool) "t_progress takes the max" true
    (m.S.t_progress = 4.0);
  let m_done = S.merge [ v1; { v2 with S.finished = true } ] in
  Alcotest.(check bool) "fleet finished when all are" true m_done.S.finished;
  Alcotest.(check bool) "merge [] is empty and unfinished" false
    (S.merge []).S.finished

let () =
  Alcotest.run "stream"
    [
      ( "deltas",
        [
          Alcotest.test_case "sum to final snapshot" `Quick
            test_deltas_sum_to_snapshot;
          Alcotest.test_case "schema" `Quick test_stream_schema;
          Alcotest.test_case "-j1 vs -j4 byte-identical" `Slow
            test_stream_j1_vs_j4;
          Alcotest.test_case "counters sections pinned" `Quick
            test_counter_sections_pinned;
          Alcotest.test_case "finalize shuffled fixture" `Quick
            test_finalize_fixture;
        ] );
      ( "flight",
        [
          Alcotest.test_case "dump on budget abort" `Quick
            test_flight_dump_on_budget;
          Alcotest.test_case "dedups same exception" `Quick
            test_flight_dedups_same_exn;
        ] );
      ( "status",
        [
          Alcotest.test_case "view over a real stream" `Quick test_status_view;
          Alcotest.test_case "task rows and fleet merge" `Quick
            test_status_tasks_and_merge;
          Alcotest.test_case "incremental tail fold" `Quick
            test_status_tail_fold;
          Alcotest.test_case "escaped values fold" `Quick
            test_status_awkward_values;
        ] );
    ]
