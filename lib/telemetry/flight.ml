(* Flight recorder. The dump reuses Export's records so the
   postmortem file speaks the same JSONL dialect as --telemetry-json,
   prefixed with the stream's recent lines (already self-describing
   records) for the "what was happening" context. *)

module Json = Ebrc_obs.Json

let enabled = Atomic.make false
let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* Under [mutex]. *)
let dir = ref "."
let last_exn : exn option ref = ref None
let last_path : string option ref = ref None
let dump_count = ref 0

let set_enabled b = Atomic.set enabled b
let set_dir d = locked (fun () -> dir := d)
let last_dump () = locked (fun () -> !last_path)

let max_events = 512

let timestamp now =
  let tm = Unix.gmtime now in
  Printf.sprintf "%04d%02d%02dT%02d%02d%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* Called with [mutex] held. *)
let dump ~reason ~attrs exn =
  let now = Telemetry.wall_now () in
  incr dump_count;
  let name =
    Printf.sprintf "flight-%s-%d-%d.jsonl" (timestamp now) (Unix.getpid ())
      !dump_count
  in
  let path = Filename.concat !dir name in
  let buf = Buffer.create 65536 in
  Export.add_line buf
    Json.(
      Obj
        ([ ("type", Str "flight"); ("schema", Int 1); ("reason", Str reason);
           ("exn", Str (Printexc.to_string exn)); ("t_wall", Num now);
           ("pid", Int (Unix.getpid ())) ]
        @ List.map (fun (k, v) -> (k, Str v)) attrs));
  List.iter
    (fun l ->
      if l <> "" then begin
        Buffer.add_string buf l;
        Buffer.add_char buf '\n'
      end)
    (Stream.recent ());
  List.iter (fun s -> Export.add_line buf (Export.metric s))
    (Telemetry.snapshot ());
  List.iter (fun s -> Export.add_line buf (Export.span s)) (Telemetry.spans ());
  let events = Telemetry.events () in
  let n = List.length events in
  let events =
    if n <= max_events then events
    else List.filteri (fun i _ -> i >= n - max_events) events
  in
  List.iter (fun e -> Export.add_line buf (Export.event e)) events;
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc buf);
  Sys.rename tmp path;
  last_path := Some path;
  Printf.eprintf "[ebrc] flight recorder: wrote %s (%s)\n%!" path reason

let on_exn ~reason ?(attrs = []) exn =
  if Atomic.get enabled then
    locked (fun () ->
        let already =
          match !last_exn with Some e -> e == exn | None -> false
        in
        if not already then begin
          last_exn := Some exn;
          try dump ~reason ~attrs exn with _ -> ()
        end)
