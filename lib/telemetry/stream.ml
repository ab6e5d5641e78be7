(* Live JSONL telemetry streaming. See stream.mli for the contract;
   the load-bearing choices here are (a) one mutex + flush per line so
   concurrent domains never tear records, (b) integer-only delta
   payloads so deltas telescope exactly, and (c) a canonicalising
   finalize pass so pool interleaving never shows in the bytes. *)

module Json = Ebrc_obs.Json

(* ------------------------------------------------------------------ *)
(* Global state.                                                       *)
(* ------------------------------------------------------------------ *)

let on = Atomic.make false
let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* All under [mutex] unless noted. *)
let chan : out_channel option ref = ref None
let path_v : string option ref = ref None
let sim_period_v = ref 0.0
let wall_period_v = ref 0.0

(* Wall-clock rate limiter for [wall_tick]: lock-free claim so pool
   workers skipping a tick never touch the mutex. *)
let last_wall = Atomic.make 0.0

let recent_cap = 64
let recent_ring = Array.make recent_cap ""
let recent_n = ref 0

(* One record per line; [Json.print] never emits a newline. *)
let output_line oc record =
  output_string oc (Json.print record);
  output_char oc '\n'

let emit record =
  if Atomic.get on then
    let line = Json.print record in
    locked (fun () ->
        (match !chan with
        | Some oc ->
            output_string oc line;
            output_char oc '\n';
            flush oc
        | None -> ());
        recent_ring.(!recent_n mod recent_cap) <- line;
        incr recent_n)

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                          *)
(* ------------------------------------------------------------------ *)

let sim_active () = Atomic.get on && !sim_period_v > 0.0
let sim_period () = !sim_period_v
let path () = !path_v

let close_chan () =
  match !chan with
  | Some oc ->
      (try flush oc with Sys_error _ -> ());
      (try close_out oc with Sys_error _ -> ());
      chan := None
  | None -> ()

let disable () =
  Atomic.set on false;
  locked close_chan

let enable ~path:p ~period_sim ~period_wall =
  if not (Float.is_finite period_sim) || period_sim < 0.0 then
    invalid_arg "Stream.enable: period_sim must be finite and >= 0";
  if not (Float.is_finite period_wall) || period_wall < 0.0 then
    invalid_arg "Stream.enable: period_wall must be finite and >= 0";
  locked (fun () ->
      close_chan ();
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 p in
      chan := Some oc;
      path_v := Some p;
      sim_period_v := period_sim;
      wall_period_v := period_wall;
      Array.fill recent_ring 0 recent_cap "";
      recent_n := 0;
      Atomic.set last_wall 0.0;
      if out_channel_length oc = 0 then begin
        output_line oc
          Json.(
            Obj
              [ ("type", Str "meta"); ("schema", Int 1);
                ("source", Str "ebrc_stream") ]);
        flush oc
      end);
  Atomic.set on true

(* ------------------------------------------------------------------ *)
(* Non-run records.                                                    *)
(* ------------------------------------------------------------------ *)

let manifest ~cmd ?(attrs = []) () =
  if Atomic.get on then
    emit Json.(Obj (("type", Str "manifest") :: ("cmd", Str cmd) :: attrs))

(* Figure and task lifecycle records: id + phase + wall clock, so
   `ebrc status` folds them the same way, under their own type tag. *)
let lifecycle typ ~id ~phase extra =
  let open Json in
  emit
    (Obj
       ([ ("type", Str typ); ("id", Str id); ("phase", Str phase);
          ("t_wall", Num (Telemetry.wall_now ())) ]
       @ extra))

let figure_event ~id ~phase ?tables () =
  if Atomic.get on then
    lifecycle "figure" ~id ~phase
      (match tables with Some n -> [ ("tables", Json.Int n) ] | None -> [])

(* The sweep-service worker's lease/done/failed transitions. *)
let task ~key ~phase ?(attrs = []) () =
  if Atomic.get on then lifecycle "task" ~id:key ~phase attrs

let progress_record now =
  let counters =
    List.filter_map
      (fun (s : Telemetry.snapshot) ->
        if s.snap_kind = Telemetry.Counter && s.count > 0 then
          Some (s.snap_name, Json.Int s.count)
        else None)
      (Telemetry.snapshot ())
  in
  Json.(
    Obj
      [ ("type", Str "progress"); ("t_wall", Num now);
        ("counters", Obj counters) ])

let wall_tick () =
  if Atomic.get on && !wall_period_v > 0.0 then begin
    let now = Telemetry.wall_now () in
    let last = Atomic.get last_wall in
    if now -. last >= !wall_period_v && Atomic.compare_and_set last_wall last now
    then emit (progress_record now)
  end

(* ------------------------------------------------------------------ *)
(* Per-run delta sampling.                                             *)
(* ------------------------------------------------------------------ *)

module Probe = Telemetry.Probe

(* The probe view is fixed at run start; every sample reads it into
   [cur] and diffs against [prev] — no registry, no lock. *)
type run = {
  key : string;
  view : Probe.view;
  prev : int array;
  cur : int array;
  mutable seq : int;
  mutable prev_events : int;
}

let run_start ~key probes =
  let view = Probe.view probes in
  let n = Probe.size view in
  let r =
    {
      key;
      view;
      (* Zero baselines: the probed components were built for this run,
         so everything they counted belongs to it. *)
      prev = Array.make n 0;
      cur = Array.make n 0;
      seq = 0;
      prev_events = 0;
    }
  in
  if Atomic.get on then
    emit
      Json.(Obj [ ("type", Str "run_start"); ("run", Str key); ("seq", Int 0) ]);
  r

(* One section: counters as non-zero deltas, gauges as levels, in view
   order; omitted when empty. *)
let section r name ~counters =
  let rec fields i acc =
    if i < 0 then acc
    else
      let v = if counters then r.cur.(i) - r.prev.(i) else r.cur.(i) in
      if (Probe.kind r.view i = Telemetry.Counter) = counters
         && (v <> 0 || not counters)
      then fields (i - 1) ((Probe.name r.view i, Json.Int v) :: acc)
      else fields (i - 1) acc
  in
  match fields (Array.length r.cur - 1) [] with
  | [] -> []
  | fs -> [ (name, Json.Obj fs) ]

let delta_record r ~typ ~t_sim ~events ~pending ~ok =
  Probe.read r.view r.cur;
  r.seq <- r.seq + 1;
  let d_events = events - r.prev_events in
  r.prev_events <- events;
  let record =
    let open Json in
    Obj
      ([ ("type", Str typ); ("run", Str r.key); ("seq", Int r.seq);
         ("t_sim", Num t_sim); ("d_events", Int d_events);
         ("pending", Int pending) ]
      @ (match ok with Some b -> [ ("ok", Bool b) ] | None -> [])
      @ section r "counters" ~counters:true
      @ section r "gauges" ~counters:false)
  in
  Array.blit r.cur 0 r.prev 0 (Array.length r.cur);
  emit record

let sample r ~t_sim ~events ~pending =
  if Atomic.get on then
    delta_record r ~typ:"delta" ~t_sim ~events ~pending ~ok:None

let run_end r ~t_sim ~events ~pending ~ok =
  if Atomic.get on then
    delta_record r ~typ:"run_end" ~t_sim ~events ~pending ~ok:(Some ok)

(* ------------------------------------------------------------------ *)
(* Reading back.                                                       *)
(* ------------------------------------------------------------------ *)

let recent () =
  locked (fun () ->
      let n = !recent_n in
      let k = min n recent_cap in
      List.init k (fun i -> recent_ring.((n - k + i) mod recent_cap)))

(* A run record's place in the canonical order: (run key, seq, rank),
   read from the line's head, never from the whole line. [None] for a
   non-run record. *)
let run_sort_key line =
  match Json.head line with
  | Some ((("run_start" | "delta" | "run_end") as tag), run) ->
      let key, seq = Option.value run ~default:("", 0) in
      Some (key, seq, match tag with "run_start" -> 0 | "delta" -> 1 | _ -> 2)
  | Some _ | None -> None

let finalize () =
  let p = locked (fun () -> !path_v) in
  match p with
  | None -> ()
  | Some p ->
      (* Closing totals: a short invocation may never reach a second
         rate-limited progress record, and readers take the counters
         from the last one. *)
      if !wall_period_v > 0.0 then
        emit (progress_record (Telemetry.wall_now ()));
      Atomic.set on false;
      locked (fun () ->
          close_chan ();
          path_v := None);
      let lines = ref [] in
      (try
         let ic = open_in p in
         Fun.protect
           ~finally:(fun () -> close_in ic)
           (fun () ->
             try
               while true do
                 lines := input_line ic :: !lines
               done
             with End_of_file -> ())
       with Sys_error _ -> ());
      let fixed = ref [] and runs = ref [] in
      List.iter
        (fun l ->
          match run_sort_key l with
          | None -> fixed := l :: !fixed
          | Some k -> runs := (k, l) :: !runs)
        !lines;
      let runs =
        List.stable_sort (fun (a, _) (b, _) -> compare a b) !runs
        |> List.map snd
      in
      let fixed = !fixed in
      let tmp = p ^ ".tmp" in
      let oc = open_out tmp in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          List.iter
            (fun l ->
              output_string oc l;
              output_char oc '\n')
            (fixed @ runs);
          output_line oc (Json.Obj [ ("type", Json.Str "stream_end") ]));
      Sys.rename tmp p
