(* Stream-file reader behind `ebrc status`. *)

type run_row = {
  run_key : string;
  seq : int;
  t_sim : float;
  events : int;
  pending : int;
  ended : bool;
  run_ok : bool;
}

type figure_row = {
  fig_id : string;
  phase : string;
  t_start : float;
  t_last : float;
  tables : int;
}

type view = {
  manifest : (string * string) list;
  runs : run_row list;
  figures : figure_row list;
  tasks : figure_row list;
  counters : (string * int) list;
  event_rate : float;
  task_rate : float;
  eta : float;
  t_progress : float;
  finished : bool;
  skipped : int;
}

let scalar_to_string = function
  | Json.Str s -> s
  | Json.Int i -> string_of_int i
  | Json.Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.0f" f
      else Printf.sprintf "%g" f
  | Json.Bool b -> string_of_bool b
  | Json.Null -> "null"
  | Json.List _ | Json.Obj _ -> "<json>"

(* A counter section: an object of integers. *)
let counters_of j =
  Json.nested "counters"
    (function
      | Json.Obj kvs as c -> List.map (fun (k, _) -> (k, Json.int k c)) kvs
      | _ -> Json.bad "expected an object")
    j

(* The fold behind [of_lines], kept open so a caller can feed a growing
   file a line at a time (the serve watcher's incremental fleet view).
   Row values are immutable, so a copy only duplicates the tables. *)
type fold = {
  run_tbl : (string, run_row) Hashtbl.t;
  mutable run_order : string list;
  fig_tbl : (string, figure_row) Hashtbl.t;
  mutable fig_order : string list;
  tasks_tbl : (string, figure_row) Hashtbl.t;
  mutable task_order : string list;
  mutable manifest_f : (string * string) list;
  mutable first_progress : (float * (string * int) list) option;
  mutable last_progress : (float * (string * int) list) option;
  mutable finished_f : bool;
  mutable skipped_f : int;
}

let fold () =
  {
    run_tbl = Hashtbl.create 16;
    run_order = [];
    fig_tbl = Hashtbl.create 16;
    fig_order = [];
    tasks_tbl = Hashtbl.create 16;
    task_order = [];
    manifest_f = [];
    first_progress = None;
    last_progress = None;
    finished_f = false;
    skipped_f = 0;
  }

let copy_fold f =
  {
    f with
    run_tbl = Hashtbl.copy f.run_tbl;
    fig_tbl = Hashtbl.copy f.fig_tbl;
    tasks_tbl = Hashtbl.copy f.tasks_tbl;
  }

let on_run f j typ =
  let key = Json.str "run" j and seq = Json.int "seq" j in
  let prev = Hashtbl.find_opt f.run_tbl key in
  let base =
    match prev with
    | Some r -> { r with seq = max r.seq seq }
    | None ->
        { run_key = key; seq = max 0 seq; t_sim = 0.0; events = 0; pending = 0;
          ended = false; run_ok = false }
  in
  (* A run_start carries its key and seq only. *)
  let row =
    if typ = "run_start" then base
    else
      let ended = typ = "run_end" in
      { base with
        t_sim = Json.num "t_sim" j;
        events = base.events + Json.int "d_events" j;
        pending = Json.int "pending" j;
        ended = base.ended || ended;
        run_ok = (if ended then Json.bool "ok" j else base.run_ok) }
  in
  if prev = None then f.run_order <- key :: f.run_order;
  Hashtbl.replace f.run_tbl key row

(* Figure and task records share one lifecycle shape: id + phase +
   wall clock, with figures additionally carrying a table count.
   [start] names the phase whose wall clock anchors elapsed time.
   Returns the new row order. *)
let on_lifecycle tbl order j ~start =
  let id = Json.str "id" j and phase = Json.str "phase" j in
  let t = Json.num "t_wall" j in
  let prev = Hashtbl.find_opt tbl id in
  let base =
    match prev with
    | Some r -> r
    | None -> { fig_id = id; phase; t_start = nan; t_last = t; tables = 0 }
  in
  let t_start = if phase = start then t else base.t_start in
  (* Only a figure's done record carries a table count. *)
  let tables =
    match Json.opt_field "tables" Fun.id j with
    | None -> base.tables
    | Some _ -> Json.int "tables" j
  in
  Hashtbl.replace tbl id { base with phase; t_start; t_last = t; tables };
  if prev = None then id :: order else order

(* Each record is decoded whole before the fold changes, so a record
   that does not decode leaves no trace but the skipped count. Only a
   stream_end that is the last record folded marks the stream finished:
   an invocation that appends to a finished stream file makes it live
   again. *)
let fold_record f j =
  let typ = Json.str "type" j in
  (match typ with
  | "run_start" | "delta" | "run_end" -> on_run f j typ
  | "figure" ->
      f.fig_order <- on_lifecycle f.fig_tbl f.fig_order j ~start:"start"
  | "task" ->
      f.task_order <- on_lifecycle f.tasks_tbl f.task_order j ~start:"leased"
  | "progress" ->
      let p = (Json.num "t_wall" j, counters_of j) in
      if f.first_progress = None then f.first_progress <- Some p;
      f.last_progress <- Some p
  | "manifest" -> (
      match j with
      | Json.Obj fields ->
          f.manifest_f <-
            List.filter_map
              (fun (k, v) ->
                if k = "type" then None else Some (k, scalar_to_string v))
              fields
      | _ -> ())
  | _ -> ());
  f.finished_f <- typ = "stream_end"

let add_line f line =
  if String.trim line <> "" then
    match Json.decode (fold_record f) line with
    | Ok () -> ()
    | Error _ -> f.skipped_f <- f.skipped_f + 1

let view_of f =
  let counters, t_progress =
    match f.last_progress with Some (t, c) -> (c, t) | None -> ([], nan)
  in
  let rate name =
    match (f.first_progress, f.last_progress) with
    | Some (t0, c0), Some (t1, c1) when t1 > t0 -> (
        match (List.assoc_opt name c0, List.assoc_opt name c1) with
        | Some a, Some b -> float_of_int (b - a) /. (t1 -. t0)
        | _ -> nan)
    | _ -> nan
  in
  let event_rate = rate "sim.events_fired" in
  let task_rate = rate "pool.tasks" in
  let eta =
    match
      (List.assoc_opt "pool.tasks_submitted" counters,
       List.assoc_opt "pool.tasks" counters)
    with
    | Some submitted, Some tasks
      when Float.is_finite task_rate && task_rate > 0.0 ->
        float_of_int (max 0 (submitted - tasks)) /. task_rate
    | _ -> nan
  in
  let rows tbl order = List.rev_map (fun k -> Hashtbl.find tbl k) order in
  {
    manifest = f.manifest_f;
    runs = rows f.run_tbl f.run_order;
    figures = rows f.fig_tbl f.fig_order;
    tasks = rows f.tasks_tbl f.task_order;
    counters;
    event_rate;
    task_rate;
    eta;
    t_progress;
    finished = f.finished_f;
    skipped = f.skipped_f;
  }

let of_lines lines =
  let f = fold () in
  List.iter (add_line f) lines;
  view_of f

(* The records the serve progress line reads: task rows, the event
   rate (from progress records) and the finished flag. *)
let fleet_shows = function
  | "task" | "progress" | "stream_end" -> true
  | _ -> false

(* The supervisor's fold: a record whose leading tag the progress line
   does not show is skipped undecoded, though like any folded record it
   ends a finished stream; any other line is folded whole. *)
let add_fleet_line f line =
  match Json.head line with
  | Some (typ, _) when not (fleet_shows typ) -> f.finished_f <- false
  | Some _ | None -> add_line f line

(* Bytes of a growing file, folded a complete line at a time; the
   bytes after the last newline wait for the rest of their line. *)
type tail = { tf : fold; mutable partial : string }

let tail () = { tf = fold (); partial = "" }

let feed t chunk =
  let s = t.partial ^ chunk in
  let rec go start =
    match String.index_from_opt s start '\n' with
    | Some nl ->
        add_fleet_line t.tf (String.sub s start (nl - start));
        go (nl + 1)
    | None -> t.partial <- String.sub s start (String.length s - start)
  in
  go 0

(* A pending partial line is read the way [read_file] reads a last
   line without its newline: folded on a copy, so a torn record it
   decodes counts as skipped now and is folded whole once the rest
   arrives. *)
let tail_view t =
  if String.trim t.partial = "" then view_of t.tf
  else begin
    let f = copy_fold t.tf in
    add_fleet_line f t.partial;
    view_of f
  end

(* Combine per-worker views into one fleet view: the serve watcher
   reads one stream file per worker and wants a single snapshot.
   Counters sum (each worker's totals are disjoint), rows concatenate
   (workers never share a run/figure/task id — task digests are leased
   exclusively), rates sum where known, and the fleet is finished only
   when every member is. *)
let merge views =
  let sum f = List.fold_left (fun acc v -> acc + f v) 0 views in
  let sum_rate f =
    let known = List.filter (fun v -> Float.is_finite (f v)) views in
    if known = [] then nan
    else List.fold_left (fun acc v -> acc +. f v) 0.0 known
  in
  let max_f f =
    List.fold_left
      (fun acc v ->
        let x = f v in
        if Float.is_finite x && not (Float.is_finite acc && acc >= x) then x
        else acc)
      nan views
  in
  let counters =
    let tbl = Hashtbl.create 32 in
    let order = ref [] in
    List.iter
      (fun v ->
        List.iter
          (fun (k, n) ->
            match Hashtbl.find_opt tbl k with
            | Some m -> Hashtbl.replace tbl k (m + n)
            | None ->
                order := k :: !order;
                Hashtbl.replace tbl k n)
          v.counters)
      views;
    List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order
  in
  {
    manifest =
      (match List.find_opt (fun v -> v.manifest <> []) views with
      | Some v -> v.manifest
      | None -> []);
    runs = List.concat_map (fun v -> v.runs) views;
    figures = List.concat_map (fun v -> v.figures) views;
    tasks = List.concat_map (fun v -> v.tasks) views;
    counters;
    event_rate = sum_rate (fun v -> v.event_rate);
    task_rate = sum_rate (fun v -> v.task_rate);
    eta = max_f (fun v -> v.eta);
    t_progress = max_f (fun v -> v.t_progress);
    finished = views <> [] && List.for_all (fun v -> v.finished) views;
    skipped = sum (fun v -> v.skipped);
  }

let read_file path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        List.rev !lines)
  with
  | lines -> Ok (of_lines lines)
  | exception Sys_error msg -> Error msg

let fmt_rate r = if Float.is_finite r then Printf.sprintf "%.0f/s" r else "-"

let fmt_eta e =
  if not (Float.is_finite e) then "-"
  else if e >= 3600.0 then Printf.sprintf "%.1fh" (e /. 3600.0)
  else if e >= 60.0 then Printf.sprintf "%.1fm" (e /. 60.0)
  else Printf.sprintf "%.0fs" e

let render v =
  let buf = Buffer.create 2048 in
  if v.manifest <> [] then begin
    Buffer.add_string buf "invocation:";
    List.iter
      (fun (k, s) -> Buffer.add_string buf (Printf.sprintf " %s=%s" k s))
      v.manifest;
    Buffer.add_char buf '\n'
  end;
  if v.figures <> [] then begin
    Buffer.add_string buf "figures:\n";
    List.iter
      (fun f ->
        let elapsed =
          if Float.is_finite f.t_start && Float.is_finite f.t_last then
            Printf.sprintf " %.1fs" (f.t_last -. f.t_start)
          else ""
        in
        let tables =
          if f.tables > 0 then Printf.sprintf " tables=%d" f.tables else ""
        in
        Buffer.add_string buf
          (Printf.sprintf "  %-24s %-7s%s%s\n" f.fig_id f.phase elapsed tables))
      v.figures
  end;
  if v.tasks <> [] then begin
    let count p = List.length (List.filter (fun t -> t.phase = p) v.tasks) in
    Buffer.add_string buf
      (Printf.sprintf "tasks: %d done, %d failed, %d leased\n" (count "done")
         (count "failed")
         (List.length v.tasks - count "done" - count "failed"))
  end;
  if v.runs <> [] then begin
    let live = List.filter (fun r -> not r.ended) v.runs in
    let done_ = List.length v.runs - List.length live in
    Buffer.add_string buf
      (Printf.sprintf "runs: %d done, %d live\n" done_ (List.length live));
    List.iter
      (fun r ->
        Buffer.add_string buf
          (Printf.sprintf "  %-40s t_sim=%-8g events=%-9d pending=%d\n"
             r.run_key r.t_sim r.events r.pending))
      live
  end;
  let c name = List.assoc_opt name v.counters in
  (match (c "pool.tasks", c "pool.tasks_submitted") with
  | Some t, Some s ->
      Buffer.add_string buf
        (Printf.sprintf
           "pool: %d/%d tasks (%d chunks, %d steals)  rate=%s  eta=%s\n" t s
           (Option.value ~default:0 (c "pool.chunks"))
           (Option.value ~default:0 (c "pool.steals"))
           (fmt_rate v.task_rate) (fmt_eta v.eta))
  | _ -> ());
  if Float.is_finite v.event_rate then
    Buffer.add_string buf
      (Printf.sprintf "engine: %s events\n" (fmt_rate v.event_rate));
  if v.finished then Buffer.add_string buf "stream: finished\n"
  else if v.counters <> [] || v.runs <> [] || v.figures <> [] then
    Buffer.add_string buf "stream: live\n"
  else Buffer.add_string buf "stream: empty\n";
  if v.skipped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "(%d unparsable line(s) skipped)\n" v.skipped);
  Buffer.contents buf

let to_json v =
  let open Json in
  let row f extra =
    Obj
      ([ ("id", Str f.fig_id); ("phase", Str f.phase);
         ("t_start", Num f.t_start); ("t_last", Num f.t_last) ]
      @ extra)
  in
  let run r =
    Obj
      [ ("run", Str r.run_key); ("seq", Int r.seq); ("t_sim", Num r.t_sim);
        ("events", Int r.events); ("pending", Int r.pending);
        ("ended", Bool r.ended); ("ok", Bool r.run_ok) ]
  in
  Obj
    [ ("manifest", Obj (List.map (fun (k, s) -> (k, Str s)) v.manifest));
      ( "figures",
        List (List.map (fun f -> row f [ ("tables", Int f.tables) ]) v.figures)
      );
      ("tasks", List (List.map (fun f -> row f []) v.tasks));
      ("runs", List (List.map run v.runs));
      ("counters", Obj (List.map (fun (k, n) -> (k, Int n)) v.counters));
      ("event_rate", Num v.event_rate); ("task_rate", Num v.task_rate);
      ("eta_s", Num v.eta); ("t_progress", Num v.t_progress);
      ("finished", Bool v.finished); ("skipped", Int v.skipped) ]
