(* Markdown report generator: runs any subset of the figure registry
   as one batch and renders one self-contained document with the
   tables, notes and total time, suitable for committing next to
   EXPERIMENTS.md or attaching to a CI run. *)

module Tm = Ebrc_telemetry.Telemetry

let m_reports =
  Tm.Counter.make ~help:"markdown reports generated" "exp.reports"

let markdown_of_table (t : Table.t) =
  (* Re-render a Table.t as GitHub-flavoured markdown. Table does not
     expose its internals, so parse its own CSV (stable by contract). *)
  let csv = Table.to_csv t in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  match lines with
  | [] -> ""
  | header :: rows ->
      let split line =
        (* Minimal CSV field split; experiment cells never embed
           escaped commas except via quoting, which we unwrap. *)
        let fields = ref [] and buf = Buffer.create 16 in
        let in_quotes = ref false in
        String.iter
          (fun c ->
            match c with
            | '"' -> in_quotes := not !in_quotes
            | ',' when not !in_quotes ->
                fields := Buffer.contents buf :: !fields;
                Buffer.clear buf
            | c -> Buffer.add_char buf c)
          line;
        fields := Buffer.contents buf :: !fields;
        List.rev !fields
      in
      let cells = split header in
      let buf = Buffer.create 512 in
      Buffer.add_string buf ("| " ^ String.concat " | " cells ^ " |\n");
      Buffer.add_string buf
        ("|" ^ String.concat "|" (List.map (fun _ -> "---") cells) ^ "|\n");
      List.iter
        (fun row ->
          Buffer.add_string buf
            ("| " ^ String.concat " | " (split row) ^ " |\n"))
        rows;
      Buffer.contents buf

(* Extract title and notes from the rendered ASCII (Table exposes only
   rendering); titles are the "== ... ==" line, notes the "note: "
   lines. *)
let title_and_notes (t : Table.t) =
  let text = Table.to_string t in
  let lines = String.split_on_char '\n' text in
  let title =
    List.find_map
      (fun l ->
        let n = String.length l in
        if n > 6 && String.sub l 0 3 = "== " then Some (String.sub l 3 (n - 6))
        else None)
      lines
  in
  let notes =
    List.filter_map
      (fun l ->
        if String.length l > 6 && String.sub l 0 6 = "note: " then
          Some (String.sub l 6 (String.length l - 6))
        else None)
      lines
  in
  (Option.value title ~default:"(untitled)", notes)

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
  if Tm.is_on () then Tm.Counter.incr m_reports;
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
  let known = List.filter (fun id -> Figures.find id <> None) ids in
  (* One batch for the whole report. In keep-going mode a failed
     figure renders as a FAILED section and the rest survives. *)
  let t0 = Unix.gettimeofday () in
  let results = Figures.run ?jobs:options.jobs ~quick:options.quick known in
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
        (Printf.sprintf "## Figure %s — %s\n\n" id (List.assoc id describe));
      match outcome with
      | Ok tables ->
          List.iter
            (fun t ->
              let title, notes = title_and_notes t in
              Buffer.add_string buf (Printf.sprintf "### %s\n\n" title);
              Buffer.add_string buf (markdown_of_table t);
              Buffer.add_char buf '\n';
              List.iter
                (fun n -> Buffer.add_string buf (Printf.sprintf "> %s\n\n" n))
                notes)
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

let save ?options ~path () = ignore (save_result ?options ~path ())
