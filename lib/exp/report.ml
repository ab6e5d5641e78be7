(* Markdown report generator: runs any subset of the figure registry
   as one batch and renders one self-contained document with the
   tables, notes and total time, suitable for committing next to
   EXPERIMENTS.md or attaching to a CI run. *)

module Tm = Ebrc_telemetry.Telemetry

let c_reports =
  Tm.Probe.count ~help:"markdown reports generated" "exp.reports"

type options = {
  ids : string list;          (* empty = whole registry *)
  quick : bool;
  heading : string;
  jobs : int option;          (* batch domains; None = sequential *)
  keep_going : bool;          (* failing figures become FAILED sections *)
}

let default_options =
  {
    ids = [];
    quick = true;
    heading = "EBRC reproduction report";
    jobs = None;
    keep_going = false;
  }

let generate_result ?(options = default_options) () =
  Tm.with_span ~cat:"report" "report:generate" @@ fun () ->
  Atomic.incr c_reports;
  Ebrc_telemetry.Stream.manifest ~cmd:"report"
    ~attrs:
      [
        ("ids", Ebrc_obs.Json.Str (String.concat " " options.ids));
        ("quick", Ebrc_obs.Json.Bool options.quick);
        ("jobs", Ebrc_obs.Json.Int (Option.value ~default:1 options.jobs));
        ("keep_going", Ebrc_obs.Json.Bool options.keep_going);
      ]
    ();
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (Printf.sprintf "# %s\n\n" options.heading);
  Buffer.add_string buf
    (Printf.sprintf
       "Mode: %s. Each section regenerates one figure/table of the paper's \
        evaluation;\nsee DESIGN.md for the experiment index and \
        EXPERIMENTS.md for the paper-vs-measured record.\n\n"
       (if options.quick then "quick (scaled-down sweeps)"
        else "full (paper-scale sweeps)"));
  let ids = match options.ids with [] -> Figures.ids () | ids -> ids in
  (* One batch for the whole report. In keep-going mode a failed (or
     unknown) figure renders as a FAILED section and the rest
     survives. *)
  let t0 = Unix.gettimeofday () in
  let results = Figures.run ?jobs:options.jobs ~quick:options.quick ids in
  let seconds = Unix.gettimeofday () -. t0 in
  if not options.keep_going then
    List.iter
      (function _, Error (f : Figures.failure) -> raise f.exn | _ -> ())
      results;
  let describe = Figures.describe () in
  let failures = ref [] in
  List.iter
    (fun (id, outcome) ->
      Buffer.add_string buf
        (Printf.sprintf "## Figure %s — %s\n\n" id
           (Option.value ~default:"unknown id" (List.assoc_opt id describe)));
      match outcome with
      | Ok tables ->
          List.iter
            (fun t -> Buffer.add_string buf (Table.to_markdown t))
            tables
      | Error (f : Figures.failure) ->
          failures := f :: !failures;
          Buffer.add_string buf
            (Printf.sprintf "### **FAILED**\n\n> %s\n\n" f.Figures.message))
    results;
  Buffer.add_string buf (Printf.sprintf "_regenerated in %.1f s_\n\n" seconds);
  let failures = List.rev !failures in
  (if failures <> [] then begin
     Buffer.add_string buf "## Failure summary\n\n";
     List.iter
       (fun (f : Figures.failure) ->
         Buffer.add_string buf
           (Printf.sprintf "- figure %s: %s\n" f.Figures.failed_id
              f.Figures.message))
       failures;
     Buffer.add_char buf '\n'
   end);
  (Buffer.contents buf, failures)

let generate ?options () = fst (generate_result ?options ())

let save_result ?options ~path () =
  let doc, failures = generate_result ?options () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc doc);
  failures
