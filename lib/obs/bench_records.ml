(* BENCH_*.json records: discovery and ordering, the one table reader,
   the regression and drift rules, and the two views built on them. *)

let digits s lo hi =
  let ok = ref true in
  for i = lo to hi do
    if not (s.[i] >= '0' && s.[i] <= '9') then ok := false
  done;
  !ok

let is_date s =
  (* YYYY-MM-DD *)
  String.length s = 10
  && digits s 0 3 && s.[4] = '-' && digits s 5 6 && s.[7] = '-' && digits s 8 9

let timestamp_of_filename name =
  let pre = "BENCH_" and suf = ".json" in
  let pl = String.length pre and sl = String.length suf in
  let nl = String.length name in
  if nl <= pl + sl
     || String.sub name 0 pl <> pre
     || String.sub name (nl - sl) sl <> suf
  then None
  else begin
    let stem = String.sub name pl (nl - pl - sl) in
    let l = String.length stem in
    if is_date stem then Some (stem ^ "T000000Z")
    else if
      l = 18
      && is_date (String.sub stem 0 10)
      && stem.[10] = 'T'
      && digits stem 11 16
      && stem.[17] = 'Z'
    then Some stem
    else None
  end

type record = { file : string; json : Json.t }

let list_ordered ~dir =
  let names =
    match Sys.readdir dir with
    | arr ->
        Array.to_list arr
        |> List.filter (fun f ->
               String.length f > 11
               && String.sub f 0 6 = "BENCH_"
               && Filename.check_suffix f ".json")
    | exception Sys_error _ -> []
  in
  (* Timestamped records first in timestamp order; the normalised
     forms share one fixed-width shape, so string compare is time
     compare. Unstamped records sort last, by name, and each earns a
     warning. *)
  let keyed =
    List.map (fun f -> (timestamp_of_filename f, f)) names
    |> List.sort (fun (ta, fa) (tb, fb) ->
           match (ta, tb) with
           | Some a, Some b ->
               let c = compare a b in
               if c <> 0 then c else compare fa fb
           | Some _, None -> -1
           | None, Some _ -> 1
           | None, None -> compare fa fb)
  in
  let warnings =
    List.filter_map
      (fun (ts, f) ->
        if ts = None then
          Some
            (Printf.sprintf
               "%s: no recognisable timestamp in filename; ordered last" f)
        else None)
      keyed
  in
  (List.map snd keyed, warnings)

let load_all ~dir =
  let files, warnings = list_ordered ~dir in
  let load file =
    match
      In_channel.with_open_bin (Filename.concat dir file) In_channel.input_all
    with
    | exception Sys_error msg ->
        Error (Printf.sprintf "%s: unreadable (%s)" file msg)
    | contents -> (
        match Json.parse contents with
        | Ok json -> Ok { file; json }
        | Error msg -> Error (Printf.sprintf "%s: parse error (%s)" file msg))
  in
  let loaded = List.map load files in
  ( List.filter_map Result.to_option loaded,
    warnings
    @ List.filter_map (function Error w -> Some w | Ok _ -> None) loaded )

(* ---------------------------- tables ----------------------------- *)

type group = Ns | Counter

let numbers = function
  | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) ->
          match Json.to_float v with
          | Some f when Float.is_finite f -> Some (k, f)
          | _ -> None)
        kvs
  | _ -> []

let table group json =
  numbers
    (match group with
    | Ns -> Json.member "microbench_ns_per_run" json
    | Counter ->
        Option.bind (Json.member "telemetry_summary" json)
          (Json.member "counters"))

(* ---------------------------- rules ------------------------------ *)

(* Hot-path regressions below this baseline are reported, not fatal:
   sub-millisecond in-process kernels swing well past 20% between
   runs of identical binaries (frequency scaling, cache state,
   neighbouring load — observed repeatedly on the 100us-1ms figure
   kernels even at a 1 s OLS quota), so gating them would make the
   gate flaky. The packet-path scenario kernels it exists for all sit
   in the tens of milliseconds. *)
let noise_floor_ns = 1e6
let regression_threshold = 0.20

let regressed ~baseline ~current =
  baseline >= noise_floor_ns
  && current > baseline *. (1.0 +. regression_threshold)

let drifted ~baseline ~current = current <> baseline

(* ----------------------------- gate ------------------------------ *)

type severity = Fail | Warn | Info
type finding = { severity : severity; subject : string; detail : string }

let gate ~warn_only ~baseline ~current =
  let pf = Printf.sprintf in
  let out = ref [] in
  let add severity subject detail =
    out := { severity; subject; detail } :: !out
  in
  let demoted = if warn_only then Warn else Fail in
  let met ok = if ok then "met" else "missed" in
  let num path =
    match
      Option.bind
        (List.fold_left
           (fun j k -> Option.bind j (Json.member k))
           (Some current) path)
        Json.to_float
    with
    | Some f when Float.is_finite f -> Some f
    | _ -> None
  in
  let info path fmt =
    Option.iter (fun v -> add Info (String.concat "." path) (fmt v)) (num path)
  in
  (* (key, baseline, current) for the keys of a table in both records. *)
  let both tbl =
    let cur = tbl current in
    List.filter_map
      (fun (k, b) -> Option.map (fun c -> (k, b, c)) (List.assoc_opt k cur))
      (tbl baseline)
  in
  List.iter
    (fun (k, b, c) ->
      let ratio = c /. b in
      if regressed ~baseline:b ~current:c then
        add Fail k (pf "%.0f -> %.0f ns (%.2fx; regressed)" b c ratio)
      else if ratio > 1.0 +. regression_threshold then
        add Info k
          (pf "%.0f -> %.0f ns (%.2fx; noisy: sub-ms baseline, ignored)" b c
             ratio)
      else add Info k (pf "%.0f -> %.0f ns (%.2fx)" b c ratio))
    (both (table Ns));
  (* Counter totals at equal seeds are deterministic: any change, from
     0 too, means the simulation itself changed behaviour. *)
  let counters = both (table Counter) in
  let drift =
    List.filter (fun (_, b, c) -> drifted ~baseline:b ~current:c) counters
  in
  List.iter
    (fun (k, b, c) -> add demoted k (pf "%.0f -> %.0f (fixed-seed drift)" b c))
    drift;
  if counters <> [] && drift = [] then
    add Info "telemetry_summary.counters"
      (pf "%d compared, all unchanged" (List.length counters));
  (match
     both (fun j -> numbers (Json.member "figure_regeneration_seconds" j))
   with
  | [] -> ()
  | figs ->
      let count p = List.length (List.filter p figs) in
      add Info "figure_regeneration_seconds"
        (pf "%d compared: %d faster, %d slower (informational)"
           (List.length figs)
           (count (fun (_, b, c) -> c < b))
           (count (fun (_, b, c) -> c > b))));
  info [ "parallel_figure_sweep"; "speedup" ] (fun sp ->
      pf "%.2fx (>= 1.6x %s)" sp (met (sp >= 1.6)));
  info [ "flows100k"; "wheel_ns_per_packet" ] (pf "%.0f (informational)");
  info [ "flows1m"; "ratio_vs_flows100k" ] (fun r ->
      pf "%.2fx (<= 2x %s)" r (met (r <= 2.0)));
  info [ "telemetry_summary"; "overhead_pct" ] (fun p ->
      pf "%+.1f%% (<= 10%% %s)" p (met (p <= 10.0)));
  info [ "stream_ablation"; "overhead_pct" ] (fun p ->
      pf "%+.1f%% (<= 15%% %s)" p (met (p <= 15.0)));
  (match
     ( num [ "sweep_service"; "serial_seconds" ],
       num [ "sweep_service"; "worker1_seconds" ],
       num [ "sweep_service"; "worker2_seconds" ] )
   with
  | Some serial, Some w1, Some w2 ->
      add Info "sweep_service"
        (pf "2 workers >= 1 worker %s; 1 worker %.2fx serial (<= 1.3x %s)"
           (met (w2 <= w1)) (w1 /. serial)
           (met (w1 /. serial <= 1.3)))
  | _ -> ());
  info [ "sweep_service"; "cold_over_warm" ] (fun r ->
      pf "warm resume %.0fx faster than cold (>= 50x %s)" r (met (r >= 50.0)));
  (* Disabled streaming must be free: the stream-off arm against the
     telemetry ablation's own disabled arm (same config, same seed).
     It moves with the host, so warn-only demotes it. *)
  (match
     ( num [ "telemetry_summary"; "disabled_ms" ],
       num [ "stream_ablation"; "scenario_off_ms" ] )
   with
  | Some b, Some c ->
      add
        (if regressed ~baseline:(b *. 1e6) ~current:(c *. 1e6) then demoted
         else Info)
        "stream_ablation.scenario_off_ms"
        (pf "%.1f ms vs %.1f ms with telemetry off (%.2fx)" c b (c /. b))
  | _ -> ());
  (* Identity gates: streaming a run, rerunning the hybrid engine at an
     equal seed and serving a sweep through the fleet may not change a
     result. Fatal even under warn-only. *)
  List.iter
    (fun (block, field) ->
      match Option.bind (Json.member block current) (Json.member field) with
      | Some (Json.Bool ok) ->
          add (if ok then Info else Fail) (block ^ "." ^ field)
            (string_of_bool ok)
      | _ -> ())
    [
      ("stream_ablation", "bit_identical");
      ("flows1m", "bit_identical");
      ("sweep_service", "store_identical");
    ];
  (* Blocks, and fields of a block both records keep, that a newer
     bench no longer measures. *)
  let rec baseline_only ~depth prefix baseline current =
    match baseline with
    | Json.Obj kvs ->
        List.iter
          (fun (k, b) ->
            match Json.member k current with
            | None -> add Info (prefix ^ k) "in the baseline only; not compared"
            | Some c ->
                if depth > 0 then
                  baseline_only ~depth:(depth - 1) (prefix ^ k ^ ".") b c)
          kvs
    | _ -> ()
  in
  baseline_only ~depth:1 "" baseline current;
  List.rev !out

(* ----------------------------- trend ----------------------------- *)

type series = {
  key : string;
  group : group;
  n : int;
  first : float;
  last : float;
  best : float;
  slope : float;
  regressed : bool;
  improved : bool;
  changed : bool;
}

let ols_slope points =
  (* points : (float index, value) list, n >= 2 *)
  let n = float_of_int (List.length points) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 points in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 points in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 points in
  let denom = (n *. sxx) -. (sx *. sx) in
  if denom = 0.0 then 0.0 else ((n *. sxy) -. (sx *. sy)) /. denom

let analyze records =
  (* (group, key) -> (record index, value) list, newest first. *)
  let tbl = Hashtbl.create 64 in
  List.iteri
    (fun i r ->
      List.iter
        (fun group ->
          List.iter
            (fun (k, v) ->
              let pts =
                Option.value ~default:[] (Hashtbl.find_opt tbl (group, k))
              in
              Hashtbl.replace tbl (group, k) ((float_of_int i, v) :: pts))
            (table group r.json))
        [ Ns; Counter ])
    records;
  Hashtbl.fold
    (fun (group, key) pts acc ->
      let pts = List.rev pts in
      let values = List.map snd pts in
      let n = List.length values in
      let first = List.hd values and last = List.nth values (n - 1) in
      let best =
        match group with
        | Ns -> List.fold_left Float.min infinity values
        | Counter -> nan
      in
      {
        key; group; n; first; last; best;
        slope = (if n < 2 then 0.0 else ols_slope pts);
        regressed = group = Ns && regressed ~baseline:best ~current:last;
        improved = group = Ns && n >= 2 && last <= first *. 0.8;
        changed = group = Counter && drifted ~baseline:first ~current:last;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare (a.group, a.key) (b.group, b.key))

let flag s =
  if s.regressed then "REGRESSED"
  else if s.improved then "improved"
  else if s.changed then "CHANGED"
  else ""

let render ~files series =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "bench trend over %d records (%s .. %s)\n"
       (List.length files)
       (match files with f :: _ -> f | [] -> "-")
       (match List.rev files with f :: _ -> f | [] -> "-"));
  let section g title =
    let rows = List.filter (fun s -> s.group = g) series in
    if rows <> [] then begin
      Buffer.add_string buf (Printf.sprintf "  %s:\n" title);
      Buffer.add_string buf
        (Printf.sprintf "    %-52s %3s %12s %12s %12s %12s  %s\n" "key" "n"
           "first" "last" "best" "slope/rec" "flag");
      List.iter
        (fun s ->
          Buffer.add_string buf
            (Printf.sprintf "    %-52s %3d %12.4g %12.4g %12.4g %12.4g  %s\n"
               s.key s.n s.first s.last
               (if Float.is_nan s.best then s.last else s.best)
               s.slope (flag s)))
        rows
    end
  in
  section Ns "hot-path timings (ns/run)";
  section Counter "telemetry counters";
  let count p = List.length (List.filter p series) in
  Buffer.add_string buf
    (Printf.sprintf "  %d regressed timing(s), %d drifted counter(s)\n"
       (count (fun s -> s.regressed))
       (count (fun s -> s.changed)));
  Buffer.contents buf
