(* Command-line front end for the reproduction: regenerate any paper
   figure or table, list the experiment registry, or run a quick demo. *)

open Cmdliner
module Json = Ebrc_obs.Json

(* Shared -j/--jobs flag: number of worker domains for the sweep
   runners. 0 (the default) means "auto": all recommended domains.
   Results are bit-identical whatever the value. Negative counts are
   rejected at parse time so the user gets a usage error, not a
   backtrace. *)
let jobs_conv =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 0 -> Ok n
    | Some _ -> Error (`Msg "jobs count must be >= 0")
    | None ->
        Error
          (`Msg
             (Printf.sprintf "invalid jobs count %S (expected an integer)" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value & opt jobs_conv 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run sweep points on $(docv) worker domains (0 = one per \
           available core). Output is identical for every $(docv).")

let resolve_jobs = function 0 -> Domain.recommended_domain_count () | n -> n

(* Shared telemetry sinks: any of these flags turns recording on for
   the duration of the command; sinks are flushed on the way out, even
   when the command fails. *)
let telemetry_args =
  let jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:
            "Enable telemetry and write counters, histograms, spans and \
             events as JSON lines to $(docv) on exit.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Enable telemetry and write a Chrome trace_event file to \
             $(docv) on exit (load it at chrome://tracing or \
             ui.perfetto.dev).")
  in
  let summary =
    Arg.(
      value & flag
      & info [ "telemetry-summary" ]
          ~doc:"Enable telemetry and print a summary table on exit.")
  in
  Term.(
    const (fun jsonl trace summary -> (jsonl, trace, summary))
    $ jsonl $ trace $ summary)

(* Scenario result store: off unless --store names one. *)
let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Load scenario results from, and publish them to, the \
           content-addressed result store in $(docv) (the store `ebrc \
           serve --store` uses; created on first write). Without it \
           every distinct scenario is simulated. Outputs are \
           byte-identical either way.")

(* Watchdog budgets (opt-in): cap every Engine.run in the process.
   Exceeding a budget raises Engine.Budget_exceeded — combine with
   --keep-going to salvage the remaining figures. *)
let budget_args =
  let budget_conv what =
    let parse s =
      Result.map_error (fun m -> `Msg m) (Ebrc.Engine.parse_budget ~what s)
    in
    Arg.conv ~docv:"SECONDS" (parse, Format.pp_print_float)
  in
  let sim =
    Arg.(
      value
      & opt (some (budget_conv "sim-time")) None
      & info [ "sim-budget" ] ~docv:"SECONDS"
          ~doc:
            "Abort any single simulation that schedules past $(docv) \
             simulated seconds (raises Budget_exceeded).")
  in
  let wall =
    Arg.(
      value
      & opt (some (budget_conv "wall-clock")) None
      & info [ "wall-budget" ] ~docv:"SECONDS"
          ~doc:
            "Abort any single simulation that runs longer than $(docv) \
             wall-clock seconds (raises Budget_exceeded).")
  in
  Term.(const (fun sim wall -> (sim, wall)) $ sim $ wall)

let apply_budgets (sim, wall) =
  Option.iter (fun b -> Ebrc.Engine.set_sim_budget (Some b)) sim;
  Option.iter (fun b -> Ebrc.Engine.set_wall_budget (Some b)) wall

let keep_going_arg =
  Arg.(
    value & flag
    & info [ "keep-going"; "k" ]
        ~doc:
          "Do not abort on the first failing figure: render the survivors, \
           print a structured failure summary, and exit non-zero.")

let print_failures (failures : Ebrc.Figures.failure list) =
  List.iter
    (fun (f : Ebrc.Figures.failure) ->
      Printf.eprintf "ebrc: figure %s FAILED: %s\n" f.Ebrc.Figures.failed_id
        f.Ebrc.Figures.message;
      if f.Ebrc.Figures.backtrace <> "" then
        prerr_string f.Ebrc.Figures.backtrace)
    failures;
  Printf.eprintf "ebrc: %d figure(s) failed\n%!" (List.length failures)

let with_telemetry (jsonl, trace, summary) f =
  if jsonl = None && trace = None && not summary then f ()
  else begin
    Ebrc.Telemetry.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Ebrc.Telemetry.set_enabled false;
        Option.iter
          (fun path ->
            Ebrc.Telemetry_export.write_jsonl ~path ();
            Printf.eprintf "telemetry written to %s\n%!" path)
          jsonl;
        Option.iter
          (fun path ->
            Ebrc.Telemetry_export.write_chrome_trace ~path ();
            Printf.eprintf "trace written to %s\n%!" path)
          trace;
        if summary then print_string (Ebrc.Telemetry_export.summary ()))
      f
  end

(* Live observability: --stream starts the JSONL telemetry stream
   (tail it with `ebrc status`), --flight arms the crash flight
   recorder. A period that is not a finite number >= 0 is a usage
   error naming its flag. *)
let obs_args =
  let seconds_conv =
    let parse s = Result.map_error (fun m -> `Msg m) (Ebrc_obs.Env.seconds s) in
    Arg.conv ~docv:"SECONDS" (parse, Format.pp_print_float)
  in
  let stream =
    Arg.(
      value
      & opt (some string) None
      & info [ "stream" ] ~docv:"FILE"
          ~doc:
            "Enable telemetry and append live progress records (JSON lines) \
             to $(docv) while the command runs; watch with `ebrc status \
             $(docv)`.")
  in
  let period =
    Arg.(
      value & opt seconds_conv 1.0
      & info [ "stream-period" ] ~docv:"SECONDS"
          ~doc:
            "Simulated-time sampling period for per-run delta records (0 \
             disables sim-time sampling; the stream stays deterministic \
             for any value).")
  in
  let wall =
    Arg.(
      value & opt seconds_conv 0.5
      & info [ "stream-wall" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock period for pool progress records (0 disables them; \
             required for byte-identical streams).")
  in
  let flight =
    Arg.(
      value & flag
      & info [ "flight" ]
          ~doc:
            "Arm the flight recorder: on a watchdog kill, failed task or \
             crash, dump recent events and counters to \
             flight-<ts>.jsonl.")
  in
  Term.(
    const (fun stream period wall flight -> (stream, period, wall, flight))
    $ stream $ period $ wall $ flight)

let finalize_stream_once =
  let finalized = ref false in
  fun path ->
    if not !finalized then begin
      finalized := true;
      Ebrc.Telemetry_stream.finalize ();
      Option.iter (fun p -> Printf.eprintf "stream written to %s\n%!" p) path
    end

let with_observability ~cmd ~attrs (stream, period, wall, flight) f =
  let stream_on = stream <> None in
  Option.iter
    (fun path ->
      Ebrc.Telemetry_stream.enable ~path ~period_sim:period ~period_wall:wall)
    stream;
  if flight then Ebrc.Telemetry_flight.set_enabled true;
  if not (stream_on || flight) then f ()
  else begin
    let stream_path = Ebrc.Telemetry_stream.path () in
    Ebrc.Telemetry.set_enabled true;
    if stream_on then begin
      Ebrc.Telemetry_stream.manifest ~cmd ~attrs ();
      (* keep-going paths exit directly, bypassing Fun.protect, so the
         stream is also finalized from at_exit (idempotent). *)
      at_exit (fun () -> finalize_stream_once stream_path)
    end;
    Fun.protect
      ~finally:(fun () -> if stream_on then finalize_stream_once stream_path)
      (fun () ->
        try f ()
        with e ->
          Ebrc.Telemetry_flight.on_exn ~reason:("cli:" ^ cmd) e;
          raise e)
  end

let print_tables ?csv_dir tables =
  List.iteri
    (fun i t ->
      Ebrc.Table.print t;
      print_newline ();
      match csv_dir with
      | Some dir ->
          let path = Filename.concat dir (Printf.sprintf "table_%02d.csv" i) in
          Ebrc.Table.save_csv t ~path;
          Printf.printf "(csv written to %s)\n" path
      | None -> ())
    tables

(* --- figure --- *)

(* Unknown figure ids are a usage error: list the valid names and exit
   2 rather than surfacing an exception. *)
let require_known_ids ~valid ids =
  match List.find_opt (fun id -> not (List.mem id valid)) ids with
  | None -> ()
  | Some id ->
      Printf.eprintf "ebrc: unknown figure id %S; valid ids are:\n  %s\n%!" id
        (String.concat " " valid);
      exit 2

let figure_cmd =
  let id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID"
          ~doc:
            "Figure or table id: 1-19, t1 (Table I), c3, c4, or 'all'.")
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:
            "Run the paper-scale sweeps (long). Default is the quick \
             (scaled-down) mode.")
  in
  let csv =
    Arg.(
      value
      & opt (some dir) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each table as CSV into $(docv).")
  in
  let run id full csv jobs store keep_going budgets telem obs =
    let quick = not full in
    require_known_ids ~valid:(Ebrc.Figures.ids () @ [ "all" ]) [ id ];
    try
      Ebrc.Result_cache.set_dir store;
      apply_budgets budgets;
      let jobs = resolve_jobs jobs in
      with_observability ~cmd:"figure"
        ~attrs:
          [
            ("id", Json.Str id);
            ("quick", Json.Bool quick);
            ("jobs", Json.Int jobs);
          ]
        obs
      @@ fun () ->
      with_telemetry telem @@ fun () ->
      let ids = if id = "all" then Ebrc.Figures.ids () else [ id ] in
      let results = Ebrc.Figures.run ~jobs ~quick ids in
      let tables, failures =
        List.partition_map
          (function
            | _, Ok tables -> Left tables
            | _, Error (f : Ebrc.Figures.failure) ->
                if not keep_going then raise f.exn;
                Right f)
          results
      in
      print_tables ?csv_dir:csv (List.concat tables);
      if failures = [] then `Ok ()
      else begin
        print_failures failures;
        exit 1
      end
    with Invalid_argument msg -> `Error (false, msg)
  in
  let info =
    Cmd.info "figure"
      ~doc:"Regenerate a figure or table from the paper's evaluation."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ id $ full $ csv $ jobs_arg $ store_arg
       $ keep_going_arg $ budget_args $ telemetry_args
       $ obs_args))

(* --- list --- *)

let list_cmd =
  let run telem =
    with_telemetry telem @@ fun () ->
    List.iter
      (fun (id, d) -> Printf.printf "%-4s %s\n" id d)
      (Ebrc.Figures.describe ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the figure/table registry.")
    Term.(const run $ telemetry_args)

(* --- quickstart --- *)

let quickstart_cmd =
  let run telem =
    with_telemetry telem @@ fun () ->
    let module F = Ebrc.Formula in
    let f = F.create ~rtt:0.1 F.Pftk_standard in
    Printf.printf "PFTK-standard, rtt = 100 ms:\n";
    List.iter
      (fun p -> Printf.printf "  f(%.3f) = %.1f pkt/s\n" p (F.eval f p))
      [ 0.001; 0.01; 0.05; 0.1 ];
    let rng = Ebrc.Prng.create ~seed:1 in
    let process = Ebrc.Loss_process.iid_shifted_exponential rng ~p:0.05 ~cv:0.9 in
    let estimator = Ebrc.Loss_interval.of_tfrc ~l:8 in
    let r =
      Ebrc.Basic_control.simulate ~formula:f ~estimator ~process
        ~cycles:50_000 ()
    in
    Printf.printf
      "\nBasic control on iid losses (p = 0.05, cv = 0.9, L = 8):\n\
      \  throughput       = %.1f pkt/s\n\
      \  normalized x/f(p) = %.3f  (conservative: %b)\n"
      r.Ebrc.Basic_control.throughput r.normalized (r.normalized <= 1.0)
  in
  Cmd.v
    (Cmd.info "quickstart"
       ~doc:"Evaluate the formulas and run a small basic-control simulation.")
    Term.(const run $ telemetry_args)

(* --- breakdown: run a custom dumbbell and print the four ratios --- *)

let breakdown_cmd =
  let n_tfrc =
    Arg.(value & opt int 4 & info [ "tfrc" ] ~docv:"N" ~doc:"Number of TFRC flows.")
  in
  let n_tcp =
    Arg.(value & opt int 4 & info [ "tcp" ] ~docv:"N" ~doc:"Number of TCP flows.")
  in
  let mbps =
    Arg.(
      value & opt float 15.0
      & info [ "mbps" ] ~docv:"MBPS" ~doc:"Bottleneck rate in Mb/s.")
  in
  let rtt_ms =
    Arg.(
      value & opt float 50.0
      & info [ "rtt" ] ~docv:"MS" ~doc:"Base round-trip time in milliseconds.")
  in
  let droptail =
    Arg.(
      value
      & opt (some int) None
      & info [ "droptail" ] ~docv:"PKTS"
          ~doc:"Use a DropTail queue of $(docv) packets instead of RED.")
  in
  let l = Arg.(value & opt int 8 & info [ "l" ] ~docv:"L" ~doc:"TFRC history window.") in
  let duration =
    Arg.(
      value & opt float 120.0
      & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let run n_tfrc n_tcp mbps rtt_ms droptail l duration seed telem =
    if n_tfrc < 1 || n_tcp < 1 then
      `Error (false, "need at least one TFRC and one TCP flow")
    else begin
      with_telemetry telem @@ fun () ->
      let module S = Ebrc.Scenario in
      let module B = Ebrc.Breakdown in
      let cfg =
        {
          S.default_config with
          seed;
          n_tfrc;
          n_tcp;
          bottleneck_bps = mbps *. 1e6;
          one_way_delay = rtt_ms /. 2000.0;
          queue =
            (match droptail with
            | Some capacity -> S.Drop_tail { capacity }
            | None -> S.Red_auto { capacity = 0 });
          tfrc_l = l;
          duration;
          warmup = duration /. 5.0;
        }
      in
      let r = S.run cfg in
      let formula =
        Ebrc.Formula.create ~rtt:(S.base_rtt cfg) cfg.S.tfrc_formula_kind
      in
      let b =
        B.create
          ~ebrc:
            {
              B.throughput = S.mean_throughput r.S.tfrc;
              p = S.pooled_loss_rate r.S.tfrc;
              rtt = S.mean_rtt r.S.tfrc;
            }
          ~tcp:
            {
              B.throughput = S.mean_throughput r.S.tcp;
              p = S.pooled_loss_rate r.S.tcp;
              rtt = S.mean_rtt r.S.tcp;
            }
          ~formula
      in
      Printf.printf "utilization %.1f%%, %d drops\n"
        (100.0 *. r.S.link_utilization)
        r.S.queue_drops;
      Printf.printf "TFRC: x=%.1f pkt/s  p=%.5f  rtt=%.1f ms\n"
        (S.mean_throughput r.S.tfrc)
        (S.pooled_loss_rate r.S.tfrc)
        (1000.0 *. S.mean_rtt r.S.tfrc);
      Printf.printf "TCP : x=%.1f pkt/s  p=%.5f  rtt=%.1f ms\n"
        (S.mean_throughput r.S.tcp)
        (S.pooled_loss_rate r.S.tcp)
        (1000.0 *. S.mean_rtt r.S.tcp);
      Printf.printf "breakdown: %s\n"
        (Format.asprintf "%a" B.pp b);
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "breakdown"
       ~doc:
         "Run a custom TFRC-vs-TCP dumbbell and print the four-way \
          TCP-friendliness breakdown.")
    Term.(
      ret
        (const run $ n_tfrc $ n_tcp $ mbps $ rtt_ms $ droptail $ l $ duration
       $ seed $ telemetry_args))

(* --- convexity: classify a formula's functionals over a region --- *)

let convexity_cmd =
  let kind =
    let kind_conv =
      Arg.enum
        [
          ("sqrt", Ebrc.Formula.Sqrt);
          ("pftk-standard", Ebrc.Formula.Pftk_standard);
          ("pftk-simplified", Ebrc.Formula.Pftk_simplified);
        ]
    in
    Arg.(
      value & opt kind_conv Ebrc.Formula.Pftk_standard
      & info [ "formula" ] ~docv:"KIND"
          ~doc:"Formula: sqrt, pftk-standard or pftk-simplified.")
  in
  let lo = Arg.(value & opt float 1.5 & info [ "lo" ] ~docv:"X" ~doc:"Region lower edge (packets).") in
  let hi = Arg.(value & opt float 1000.0 & info [ "hi" ] ~docv:"X" ~doc:"Region upper edge (packets).") in
  let run kind lo hi telem =
    if not (0.0 < lo && lo < hi) then `Error (false, "need 0 < lo < hi")
    else begin
      with_telemetry telem @@ fun () ->
      let f = Ebrc.Formula.create ~rtt:1.0 kind in
      let region = { Ebrc.Conditions.x_lo = lo; x_hi = hi } in
      Printf.printf "%s on x in [%g, %g] (p in [%g, %g]):\n"
        (Ebrc.Formula.name f) lo hi (1.0 /. hi) (1.0 /. lo);
      Printf.printf "  (F1)  1/f(1/x) convex : %b\n"
        (Ebrc.Conditions.f1_holds ~region f);
      Printf.printf "  (F2)  f(1/x) concave  : %b\n"
        (Ebrc.Conditions.f2_holds ~region f);
      Printf.printf "  (F2c) f(1/x) convex   : %b\n"
        (Ebrc.Conditions.f2c_holds ~region f);
      Printf.printf "  Prop-4 deviation r    : %.5f\n"
        (Ebrc.Conditions.deviation_ratio ~region f);
      (match Ebrc.Conditions.h_inflection f with
      | Some x ->
          Printf.printf "  f(1/x) inflection     : x = %.2f (p = %.4f)\n" x
            (1.0 /. x)
      | None -> Printf.printf "  f(1/x) inflection     : none (concave)\n");
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "convexity"
       ~doc:
         "Classify a throughput formula against the paper's conditions \
          (F1)/(F2)/(F2c) on a loss-interval region.")
    Term.(ret (const run $ kind $ lo $ hi $ telemetry_args))

(* --- design: the conservativeness-as-objective advisor --- *)

let design_cmd =
  let target =
    Arg.(
      value & opt float 0.8
      & info [ "target" ] ~docv:"FRAC"
          ~doc:
            "Worst-case efficiency target: the fraction of f(p) the \
             control must attain across the operating region.")
  in
  let cv =
    Arg.(
      value & opt float 0.9
      & info [ "cv" ] ~docv:"CV"
          ~doc:"Coefficient of variation of the loss intervals.")
  in
  let l_max =
    Arg.(value & opt int 64 & info [ "l-max" ] ~docv:"L" ~doc:"Largest window to consider.")
  in
  let run target cv l_max telem =
    if target <= 0.0 || target >= 1.0 then
      `Error (false, "target must be in (0, 1)")
    else if cv <= 0.0 || cv > 1.0 then `Error (false, "cv must be in (0, 1]")
    else begin
      with_telemetry telem @@ fun () ->
      let module Dz = Ebrc.Design in
      let formula = Ebrc.Formula.create ~rtt:0.1 Ebrc.Formula.Pftk_standard in
      let region = { Dz.default_region with cv } in
      (match Dz.recommend_window ~region ~l_max ~formula ~target () with
      | Some r ->
          Printf.printf
            "recommended window L = %d (worst-case efficiency %.3f over p in \
             {%s}, cv = %g)\n"
            r.Dz.l r.Dz.efficiency
            (String.concat ", "
               (List.map (Printf.sprintf "%g") region.Dz.p_values))
            cv;
          List.iter
            (fun (p, e) -> Printf.printf "  p = %-5g  x/f(p) = %.3f\n" p e)
            r.Dz.per_p
      | None ->
          Printf.printf
            "target %.2f unreachable within L <= %d; best at L = %d is %.3f\n"
            target l_max l_max
            (Dz.worst_case_efficiency ~region ~formula ~l:l_max ()));
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "design"
       ~doc:
         "Recommend the smallest estimator window meeting a worst-case \
          conservative-efficiency target (the paper's design-for-\
          conservativeness direction).")
    Term.(ret (const run $ target $ cv $ l_max $ telemetry_args))

(* --- report: regenerate figures into a markdown document --- *)

let report_cmd =
  let out =
    Arg.(
      value
      & opt string "report.md"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output markdown file.")
  in
  let ids =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID" ~doc:"Figure ids to include (default: all).")
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"Paper-scale sweeps instead of quick mode.")
  in
  let run out ids full jobs store keep_going budgets telem obs =
    require_known_ids ~valid:(Ebrc.Figures.ids ()) ids;
    Ebrc.Result_cache.set_dir store;
    apply_budgets budgets;
    let jobs = resolve_jobs jobs in
    with_observability ~cmd:"report"
      ~attrs:
        [
          ("out", Json.Str out);
          ("quick", Json.Bool (not full));
          ("jobs", Json.Int jobs);
        ]
      obs
    @@ fun () ->
    with_telemetry telem @@ fun () ->
    let options =
      { Ebrc.Report.ids; quick = not full;
        heading = "EBRC reproduction report";
        jobs = Some jobs;
        keep_going }
    in
    let failures = Ebrc.Report.save_result ~options ~path:out () in
    Printf.printf "report written to %s\n" out;
    if failures <> [] then begin
      print_failures failures;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Regenerate figures into a self-contained markdown report.")
    Term.(
      const run $ out $ ids $ full $ jobs_arg $ store_arg $ keep_going_arg
      $ budget_args $ telemetry_args $ obs_args)

(* --- validate: assert the paper's qualitative claims --- *)

let validate_cmd =
  let full =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"Run the long (paper-scale) validations.")
  in
  let run full jobs store telem obs =
    Ebrc.Result_cache.set_dir store;
    let jobs = resolve_jobs jobs in
    with_observability ~cmd:"validate"
      ~attrs:
        [ ("quick", Json.Bool (not full)); ("jobs", Json.Int jobs) ]
      obs
    @@ fun () ->
    with_telemetry telem @@ fun () ->
    let outcomes =
      Ebrc.Validate.run ~jobs ~quick:(not full) Ebrc.Validate.checks
    in
    Ebrc.Table.print (Ebrc.Validate.to_table outcomes);
    if Ebrc.Validate.all_passed outcomes then begin
      print_endline "all claims validated";
      `Ok ()
    end
    else `Error (false, "one or more claim validations FAILED")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Run the automated paper-claim validation suite (a scientific CI \
          gate).")
    Term.(
      ret
        (const run $ full $ jobs_arg $ store_arg $ telemetry_args
       $ obs_args))

(* --- status: tail live telemetry streams --- *)

let status_cmd =
  let files =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"STREAM"
          ~doc:"Stream file(s) written by a running --stream invocation.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Print one machine-readable (JSON) snapshot and exit.")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Refresh period of the live view.")
  in
  let run files once interval =
    if interval <= 0.0 then `Error (false, "interval must be > 0")
    else begin
      let read f =
        match Ebrc_obs.Status.read_file f with
        | Ok v -> Some v
        | Error msg ->
            Printf.eprintf "ebrc status: %s: %s\n%!" f msg;
            None
      in
      if once then begin
        List.iter
          (fun f ->
            match read f with
            | Some v ->
                let status = Ebrc_obs.Status.to_json v in
                print_endline
                  Json.(print (Obj [ ("file", Str f); ("status", status) ]))
            | None -> ())
          files;
        `Ok ()
      end
      else begin
        let tty = Unix.isatty Unix.stdout in
        let rec loop () =
          let views = List.map (fun f -> (f, read f)) files in
          if tty then print_string "\027[2J\027[H";
          List.iter
            (fun (f, v) ->
              match v with
              | Some v ->
                  if List.length files > 1 then Printf.printf "== %s ==\n" f;
                  print_string (Ebrc_obs.Status.render v)
              | None -> ())
            views;
          print_string "\n";
          flush stdout;
          let all_finished =
            views <> []
            && List.for_all
                 (fun (_, v) ->
                   match v with
                   | Some v -> v.Ebrc_obs.Status.finished
                   | None -> false)
                 views
          in
          if all_finished then `Ok ()
          else begin
            Unix.sleepf interval;
            loop ()
          end
        in
        loop ()
      end
    end
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Watch the live progress of a running figure/report/validate \
          invocation through its --stream file.")
    Term.(ret (const run $ files $ once $ interval))

(* --- bench-trend: longitudinal perf analytics over BENCH records --- *)

let bench_trend_cmd =
  let dir =
    Arg.(
      value & opt dir "."
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Directory holding the BENCH_*.json records.")
  in
  let run dir =
    let records, warnings = Ebrc_obs.Bench_records.load_all ~dir in
    List.iter (fun w -> Printf.eprintf "ebrc bench-trend: warning: %s\n" w)
      warnings;
    if records = [] then
      `Error (false, "no BENCH_*.json records found in " ^ dir)
    else begin
      let files =
        List.map (fun r -> r.Ebrc_obs.Bench_records.file) records
      in
      print_string
        (Ebrc_obs.Bench_records.(render ~files (analyze records)));
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "bench-trend"
       ~doc:
         "Analyze perf trends across all checked-in BENCH_*.json records: \
          first/last/best, per-record slope, and regression flags per \
          hot-path timing and telemetry counter.")
    Term.(ret (const run $ dir))

(* --- manifest / serve / worker: the multi-process sweep service --- *)

(* Shared by serve / worker / scrub: arm the deterministic I/O fault
   shim. Any integer arms it, 0 included. *)
let chaos_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "chaos" ] ~docv:"SEED"
        ~doc:
          "Arm the deterministic chaos layer: injected EIO/ENOSPC, torn \
           writes, lost fsync and lease clock skew on every queue and \
           store write, scheduled from a PRNG stream under $(docv) so \
           the run is replayable. Any integer arms it, 0 included.")

let manifest_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Manifest file to write.")
  in
  let tasks =
    Arg.(
      value & opt int 6
      & info [ "tasks" ] ~docv:"N" ~doc:"Number of demo tasks to generate.")
  in
  let seed0 =
    Arg.(
      value & opt int 42
      & info [ "seed0" ] ~docv:"SEED"
          ~doc:"Seed of the first task (consecutive seeds follow).")
  in
  let duration =
    Arg.(
      value & opt float 10.0
      & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds per task.")
  in
  let run path tasks seed0 duration =
    if tasks < 1 then `Error (false, "need at least one task")
    else begin
      let m = Ebrc_serve.Manifest.demo ~seed0 ~duration ~tasks () in
      Ebrc_serve.Manifest.save ~path m;
      Printf.printf "manifest with %d task(s) written to %s\n" tasks path;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "manifest"
       ~doc:
         "Write a demo sweep manifest (small dumbbell scenarios over \
          consecutive seeds) for `ebrc serve`.")
    Term.(ret (const run $ path $ tasks $ seed0 $ duration))

let serve_cmd =
  let manifest_path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MANIFEST"
          ~doc:"Sweep manifest (see `ebrc manifest`).")
  in
  let queue =
    Arg.(
      value
      & opt (some string) None
      & info [ "queue" ] ~docv:"DIR"
          ~doc:"Task queue directory (default: $(i,MANIFEST).queue).")
  in
  let store =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Content-addressed result store shared by the workers \
             (default: $(i,QUEUE)/store). Re-serving over a partial \
             store enqueues only the missing tasks.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers"; "w" ] ~docv:"N"
          ~doc:
            "Worker processes to spawn (0 = just prime the queue for \
             externally started `ebrc worker` processes).")
  in
  let ttl =
    Arg.(
      value & opt float 300.0
      & info [ "ttl" ] ~docv:"S"
          ~doc:
            "Lease lifetime handed to workers: a SIGKILL'd worker \
             delays its task by at most $(docv) seconds.")
  in
  let retries =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"N"
          ~doc:"Extra in-process attempts per crashing task.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ] ~doc:"Suppress the periodic progress line.")
  in
  let watchdog =
    Arg.(
      value & opt float 120.0
      & info [ "watchdog" ] ~docv:"S"
          ~doc:
            "Stall detector: SIGKILL a worker whose telemetry stream \
             has not grown for $(docv) seconds and reclaim its leases \
             (0 disables).")
  in
  let max_strikes =
    Arg.(
      value & opt int 3
      & info [ "max-strikes" ] ~docv:"N"
          ~doc:
            "Crash-loop circuit breaker: poison a task once $(docv) \
             workers died while holding its lease.")
  in
  let chaos_kill =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-kill" ] ~docv:"SEED"
          ~doc:
            "Arm the chaos monkey: SIGKILL random live workers on a \
             deterministic schedule drawn under $(docv). For chaos \
             soaks.")
  in
  let run manifest_path queue store workers ttl retries quiet watchdog
      max_strikes chaos_kill chaos =
    if workers < 0 then `Error (false, "workers must be >= 0")
    else if ttl <= 0.0 then `Error (false, "ttl must be > 0")
    else if max_strikes < 1 then `Error (false, "max-strikes must be >= 1")
    else begin
      Ebrc_chaos.Io_fault.set_seed chaos;
      let d = Ebrc_serve.Serve.default ~manifest_path in
      let queue_dir = Option.value ~default:d.Ebrc_serve.Serve.queue_dir queue in
      let cfg =
        {
          d with
          Ebrc_serve.Serve.queue_dir;
          store_dir =
            Option.value ~default:(Filename.concat queue_dir "store") store;
          workers;
          ttl;
          retries;
          watchdog;
          max_strikes;
          chaos_kill;
          quiet;
        }
      in
      exit (Ebrc_serve.Serve.run cfg)
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a sweep manifest through the multi-process experiment \
          service: enqueue every task not already in the result store, \
          spawn and supervise workers (heartbeat stall detection, \
          backoff restarts, crash-loop poisoning), and watch until the \
          sweep drains. Resumable: re-serving skips published results.")
    Term.(
      ret
        (const run $ manifest_path $ queue $ store $ workers $ ttl $ retries
       $ quiet $ watchdog $ max_strikes $ chaos_kill $ chaos_arg))

let worker_cmd =
  let queue =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUEUE"
          ~doc:"Task queue directory (see `ebrc serve`).")
  in
  let store =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:"Result store directory (default: $(i,QUEUE)/store).")
  in
  let id =
    Arg.(
      value
      & opt (some string) None
      & info [ "id" ] ~docv:"ID"
          ~doc:
            "Worker id recorded in leases and failure records \
             (default: w<pid>).")
  in
  let ttl =
    Arg.(
      value & opt float 300.0
      & info [ "ttl" ] ~docv:"S" ~doc:"Lease lifetime in seconds.")
  in
  let retries =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"N"
          ~doc:"Extra in-process attempts per crashing task.")
  in
  let poll =
    Arg.(
      value & opt float 0.2
      & info [ "poll" ] ~docv:"S"
          ~doc:
            "Cap on the rescan period while every pending task is \
             leased by a peer. Below the cap the period is an eighth of \
             this worker's filtered task service time (at least 2 ms); \
             the cap applies until the first task completes.")
  in
  let max_tasks =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-tasks" ] ~docv:"N"
          ~doc:"Stop after executing $(docv) tasks.")
  in
  let follow =
    Arg.(
      value & flag
      & info [ "follow" ]
          ~doc:
            "Keep polling for new tasks instead of exiting once the \
             queue drains.")
  in
  let run queue store id ttl retries poll max_tasks follow chaos budgets
      telem obs =
    if ttl <= 0.0 then `Error (false, "ttl must be > 0")
    else if poll <= 0.0 then `Error (false, "poll must be > 0")
    else begin
      apply_budgets budgets;
      Ebrc_chaos.Io_fault.set_seed chaos;
      let d = Ebrc_serve.Worker.default ~queue_dir:queue in
      let cfg =
        {
          d with
          Ebrc_serve.Worker.store_dir =
            Option.value ~default:d.Ebrc_serve.Worker.store_dir store;
          worker_id = Option.value ~default:d.Ebrc_serve.Worker.worker_id id;
          ttl;
          retries;
          poll;
          max_tasks;
          exit_when_drained = not follow;
        }
      in
      with_observability ~cmd:"worker"
        ~attrs:
          [
            ("queue", Json.Str queue);
            ("worker", Json.Str cfg.Ebrc_serve.Worker.worker_id);
          ]
        obs
      @@ fun () ->
      with_telemetry telem @@ fun () ->
      let o = Ebrc_serve.Worker.run cfg in
      Printf.printf "worker %s: %d ran, %d cached, %d failed\n"
        cfg.Ebrc_serve.Worker.worker_id o.Ebrc_serve.Worker.ran
        o.Ebrc_serve.Worker.cached o.Ebrc_serve.Worker.failed;
      if o.Ebrc_serve.Worker.failed > 0 then exit 1;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Drain a sweep-service task queue: lease tasks, run each \
          scenario crash-isolated, publish results into the shared \
          content-addressed store. Any number of workers can share one \
          queue.")
    Term.(
      ret
        (const run $ queue $ store $ id $ ttl $ retries $ poll $ max_tasks
       $ follow $ chaos_arg $ budget_args $ telemetry_args $ obs_args))

let scrub_cmd =
  let store =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"STORE"
          ~doc:"Content-addressed result store directory to verify.")
  in
  let quarantine =
    Arg.(
      value
      & opt (some string) None
      & info [ "quarantine" ] ~docv:"DIR"
          ~doc:
            "Where corrupt and stale records are moved (default: \
             $(i,STORE)/quarantine). Nothing is ever deleted.")
  in
  let run store quarantine chaos =
    Ebrc_chaos.Io_fault.set_seed chaos;
    if not (Sys.file_exists store) then
      `Error (false, Printf.sprintf "no such store: %s" store)
    else begin
      let module Rc = Ebrc.Result_cache in
      let r = Rc.scrub ?quarantine ~dir:store () in
      List.iter
        (fun (digest, why) ->
          Printf.printf "scrub: quarantined %s (%s) -> %s\n" digest why
            r.Rc.scrub_dir)
        r.Rc.scrub_quarantined;
      let n_quarantined = List.length r.Rc.scrub_quarantined in
      let n_stale = List.length r.Rc.scrub_stale in
      Printf.printf "scrub: %d record(s) checked, %d ok, %d quarantined%s\n"
        r.Rc.scrub_checked r.Rc.scrub_ok n_quarantined
        (if n_quarantined = 0 then ""
         else
           Printf.sprintf " (%d stale version, %d corrupt)" n_stale
             (n_quarantined - n_stale));
      if n_quarantined > 0 then exit 1;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Verify every record in a sweep result store against its \
          content digest, schema and version tag; corrupt, truncated \
          and stale-version records (written by another code version) \
          are moved to quarantine/ (never deleted) and reported with \
          the reason (for a corrupt record, the parse error, the path \
          of the field that does not decode, or a digest mismatch), so \
          re-serving the manifest recomputes exactly those digests. \
          Exit 1 when anything was quarantined.")
    Term.(ret (const run $ store $ quarantine $ chaos_arg))

let main =
  let doc =
    "Reproduction of 'On the Long-Run Behavior of Equation-Based Rate \
     Control' (Vojnovic & Le Boudec, SIGCOMM 2002)."
  in
  Cmd.group
    (Cmd.info "ebrc" ~version:Ebrc.version ~doc)
    [ figure_cmd; list_cmd; quickstart_cmd; breakdown_cmd; convexity_cmd;
      report_cmd; design_cmd; validate_cmd; status_cmd; bench_trend_cmd;
      manifest_cmd; serve_cmd; worker_cmd; scrub_cmd ]

(* The one environment knob, EBRC_LEASE_GRACE, decoded before dispatch:
   a malformed value prints "ebrc: EBRC_LEASE_GRACE: <reason>" and exits
   124, like a malformed flag, whichever command runs. It is read again
   where queues are opened, with the same decoder. *)
let () =
  match ignore (Ebrc_serve.Task_queue.default_torn_grace () : float) with
  | () -> exit (Cmd.eval main)
  | exception Invalid_argument msg ->
      Printf.eprintf "ebrc: %s\n%!" msg;
      exit Cmd.Exit.cli_error
