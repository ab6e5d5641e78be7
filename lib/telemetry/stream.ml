(* Live JSONL telemetry streaming. See stream.mli for the contract;
   the load-bearing choices here are (a) one mutex + flush per line so
   concurrent domains never tear records, (b) integer-only delta
   payloads so deltas telescope exactly, and (c) a canonicalising
   finalize pass so pool interleaving never shows in the bytes. *)

module Json = Ebrc_obs.Json
let num = Export.num

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

(* [line] has no trailing newline. *)
let emit line =
  if Atomic.get on then
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

let active () = Atomic.get on
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
        output_string oc
          "{\"type\":\"meta\",\"schema\":1,\"source\":\"ebrc_stream\"}\n";
        flush oc
      end);
  Atomic.set on true

let enable_from_env () =
  match Sys.getenv_opt "EBRC_STREAM" with
  | None | Some "" -> false
  | Some p ->
      let fenv name default =
        match Sys.getenv_opt name with
        | None | Some "" -> default
        | Some v -> ( match float_of_string_opt v with Some f -> f | None -> default)
      in
      enable ~path:p
        ~period_sim:(fenv "EBRC_STREAM_PERIOD" 1.0)
        ~period_wall:(fenv "EBRC_STREAM_WALL" 0.5);
      true

(* ------------------------------------------------------------------ *)
(* Non-run records.                                                    *)
(* ------------------------------------------------------------------ *)

let manifest ~cmd ?(attrs = []) () =
  if Atomic.get on then begin
    let buf = Buffer.create 128 in
    Buffer.add_string buf
      (Printf.sprintf "{\"type\":\"manifest\",\"cmd\":\"%s\""
         (Json.escape cmd));
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf (Printf.sprintf ",\"%s\":%s" (Json.escape k) v))
      attrs;
    Buffer.add_char buf '}';
    emit (Buffer.contents buf)
  end

let figure_event ~id ~phase ?tables () =
  if Atomic.get on then begin
    let buf = Buffer.create 96 in
    Buffer.add_string buf
      (Printf.sprintf
         "{\"type\":\"figure\",\"id\":\"%s\",\"phase\":\"%s\",\"t_wall\":%s"
         (Json.escape id) (Json.escape phase)
         (num (Telemetry.wall_now ())));
    (match tables with
    | Some n -> Buffer.add_string buf (Printf.sprintf ",\"tables\":%d" n)
    | None -> ());
    Buffer.add_char buf '}';
    emit (Buffer.contents buf)
  end

(* Task lifecycle records for the sweep-service worker: same shape as
   figure records (id + phase + wall clock) so `ebrc status` folds
   them the same way, under their own type tag. *)
let task ~key ~phase ?(attrs = []) () =
  if Atomic.get on then begin
    let buf = Buffer.create 96 in
    Buffer.add_string buf
      (Printf.sprintf
         "{\"type\":\"task\",\"id\":\"%s\",\"phase\":\"%s\",\"t_wall\":%s"
         (Json.escape key) (Json.escape phase)
         (num (Telemetry.wall_now ())));
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf (Printf.sprintf ",\"%s\":%s" (Json.escape k) v))
      attrs;
    Buffer.add_char buf '}';
    emit (Buffer.contents buf)
  end

let progress_line now =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "{\"type\":\"progress\",\"t_wall\":%s,\"counters\":{"
       (num now));
  let first = ref true in
  List.iter
    (fun (s : Telemetry.snapshot) ->
      if s.snap_kind = Telemetry.Counter && s.count > 0 then begin
        if not !first then Buffer.add_char buf ',';
        first := false;
        Buffer.add_string buf
          (Printf.sprintf "\"%s\":%d" (Json.escape s.snap_name) s.count)
      end)
    (Telemetry.snapshot ());
  Buffer.add_string buf "}}";
  Buffer.contents buf

let wall_tick () =
  if Atomic.get on && !wall_period_v > 0.0 then begin
    let now = Telemetry.wall_now () in
    let last = Atomic.get last_wall in
    if now -. last >= !wall_period_v && Atomic.compare_and_set last_wall last now
    then emit (progress_line now)
  end

(* ------------------------------------------------------------------ *)
(* Per-run delta sampling.                                             *)
(* ------------------------------------------------------------------ *)

type run = {
  key : string;
  mutable seq : int;
  mutable prev : (string * Telemetry.kind * int * float) list;
  mutable prev_events : int;
}

let run_start ~key =
  let r = { key; seq = 0; prev = Telemetry.local_totals (); prev_events = 0 } in
  if Atomic.get on then
    emit
      (Printf.sprintf "{\"type\":\"run_start\",\"run\":\"%s\",\"seq\":0}"
         (Json.escape key));
  r

(* Diff of two name-sorted local-totals lists: (name, kind, d_count)
   for every metric whose sample/counter count advanced. Counts are
   monotonic between samples (counters and histogram/gauge sample
   counts only ever increment), so [cur] dominates [prev]. *)
let diff prev cur =
  let rec walk prev cur acc =
    match (prev, cur) with
    | _, [] -> List.rev acc
    | [], (n, k, c, _) :: cur' ->
        walk [] cur' (if c <> 0 then (n, k, c) :: acc else acc)
    | (np, _, cp, _) :: prev', ((nc, kc, cc, _) :: cur' as cur0) ->
        let o = compare np nc in
        if o = 0 then
          walk prev' cur'
            (if cc - cp <> 0 then (nc, kc, cc - cp) :: acc else acc)
        else if o < 0 then
          (* metric vanished from the local view: impossible while the
             registry is stable; skip defensively. *)
          walk prev' cur0 acc
        else walk prev cur' (if cc <> 0 then (nc, kc, cc) :: acc else acc)
  in
  walk prev cur []

let add_kind_section buf label kind deltas =
  let rows = List.filter (fun (_, k, _) -> k = kind) deltas in
  if rows <> [] then begin
    Buffer.add_string buf (Printf.sprintf ",\"%s\":{" label);
    List.iteri
      (fun i (n, _, d) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "\"%s\":%d" (Json.escape n) d))
      rows;
    Buffer.add_char buf '}'
  end

let delta_record r ~typ ~t_sim ~events ~pending ~ok =
  let cur = Telemetry.local_totals () in
  let deltas = diff r.prev cur in
  r.prev <- cur;
  r.seq <- r.seq + 1;
  let d_events = events - r.prev_events in
  r.prev_events <- events;
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"type\":\"%s\",\"run\":\"%s\",\"seq\":%d,\"t_sim\":%s,\
        \"d_events\":%d,\"pending\":%d"
       typ (Json.escape r.key) r.seq (num t_sim) d_events pending);
  (match ok with
  | Some b -> Buffer.add_string buf (Printf.sprintf ",\"ok\":%b" b)
  | None -> ());
  add_kind_section buf "counters" Telemetry.Counter deltas;
  add_kind_section buf "gauges" Telemetry.Gauge deltas;
  add_kind_section buf "hists" Telemetry.Histogram deltas;
  Buffer.add_char buf '}';
  emit (Buffer.contents buf)

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

(* Tiny field scanners for our own writer's output (fields are rendered
   by [emit]ers above, so the shapes are known; this is not a JSON
   parser). *)
let field_string line name =
  let pat = Printf.sprintf "\"%s\":\"" name in
  let plen = String.length pat and llen = String.length line in
  let rec find i =
    if i + plen > llen then None
    else if String.sub line i plen = pat then begin
      let b = Buffer.create 16 in
      let rec scan j =
        if j >= llen then None
        else
          match line.[j] with
          | '"' -> Some (Buffer.contents b)
          | '\\' when j + 1 < llen ->
              Buffer.add_char b line.[j + 1];
              scan (j + 2)
          | c ->
              Buffer.add_char b c;
              scan (j + 1)
      in
      scan (i + plen)
    end
    else find (i + 1)
  in
  find 0

let field_int line name =
  let pat = Printf.sprintf "\"%s\":" name in
  let plen = String.length pat and llen = String.length line in
  let rec find i =
    if i + plen > llen then None
    else if String.sub line i plen = pat then begin
      let j = ref (i + plen) in
      let b = Buffer.create 8 in
      if !j < llen && line.[!j] = '-' then begin
        Buffer.add_char b '-';
        incr j
      end;
      while !j < llen && line.[!j] >= '0' && line.[!j] <= '9' do
        Buffer.add_char b line.[!j];
        incr j
      done;
      int_of_string_opt (Buffer.contents b)
    end
    else find (i + 1)
  in
  find 0

let record_rank line =
  match field_string line "type" with
  | Some "run_start" -> Some 0
  | Some "delta" -> Some 1
  | Some "run_end" -> Some 2
  | _ -> None

let finalize () =
  let p = locked (fun () -> !path_v) in
  match p with
  | None -> ()
  | Some p ->
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
      let lines = List.rev !lines in
      let fixed, runs =
        List.partition (fun l -> record_rank l = None) lines
      in
      let key l =
        ( (match field_string l "run" with Some k -> k | None -> ""),
          (match field_int l "seq" with Some s -> s | None -> 0),
          match record_rank l with Some r -> r | None -> 3 )
      in
      let runs = List.stable_sort (fun a b -> compare (key a) (key b)) runs in
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
          output_string oc "{\"type\":\"stream_end\"}\n");
      Sys.rename tmp p
