(* Telemetry sinks. Hand-rolled JSON emission: the values are floats,
   ints and registered metric names, so escaping is the only subtlety
   (and NaN/infinity, which JSON lacks — emitted as null). *)

module Json = Ebrc_obs.Json

let num f =
  if Float.is_finite f then
    (* %.17g round-trips doubles; trim the common integral case. *)
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f
  else "null"

let kind_name = function
  | Telemetry.Counter -> "counter"
  | Telemetry.Gauge -> "gauge"
  | Telemetry.Histogram -> "histogram"

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* ------------------------------------------------------------------ *)
(* JSONL.                                                              *)
(* ------------------------------------------------------------------ *)

let metric_line buf (s : Telemetry.snapshot) =
  Buffer.add_string buf
    (Printf.sprintf "{\"type\":%S,\"name\":\"%s\",\"count\":%d"
       (kind_name s.snap_kind) (Json.escape s.snap_name) s.count);
  (match s.snap_kind with
  | Telemetry.Counter -> ()
  | Telemetry.Gauge | Telemetry.Histogram ->
      Buffer.add_string buf
        (Printf.sprintf ",\"min\":%s,\"max\":%s" (num s.min_v) (num s.max_v)));
  (match s.snap_kind with
  | Telemetry.Histogram ->
      Buffer.add_string buf (Printf.sprintf ",\"sum\":%s" (num s.sum));
      Buffer.add_string buf ",\"buckets\":[";
      Array.iteri
        (fun i (lo, c) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "[%s,%d]" (num lo) c))
        s.buckets;
      Buffer.add_char buf ']'
  | Telemetry.Counter | Telemetry.Gauge -> ());
  if s.snap_help <> "" then
    Buffer.add_string buf
      (Printf.sprintf ",\"help\":\"%s\"" (Json.escape s.snap_help));
  Buffer.add_string buf "}\n"

let event_line buf (e : Telemetry.event) =
  Buffer.add_string buf
    (Printf.sprintf "{\"type\":\"event\",\"t\":%s,\"kind\":\"%s\"" (num e.time)
       (Json.escape e.ev));
  if e.flow >= 0 then
    Buffer.add_string buf (Printf.sprintf ",\"flow\":%d" e.flow);
  Buffer.add_string buf (Printf.sprintf ",\"value\":%s" (num e.value));
  if e.attrs <> [] then begin
    Buffer.add_string buf ",\"attrs\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf "\"%s\":%s" (Json.escape k) (num v)))
      e.attrs;
    Buffer.add_char buf '}'
  end;
  Buffer.add_string buf "}\n"

let span_line buf (s : Telemetry.span) =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"type\":\"span\",\"name\":\"%s\",\"cat\":\"%s\",\"begin_s\":%s,\
        \"dur_s\":%s,\"dom\":%d}\n"
       (Json.escape s.span_name) (Json.escape s.cat) (num s.t0)
       (num (s.t1 -. s.t0))
       s.dom)

let write_jsonl ~path () =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"type\":\"meta\",\"schema\":1,\"source\":\"ebrc_telemetry\",\
        \"events_dropped\":%d}\n"
       (Telemetry.events_dropped ()));
  List.iter (metric_line buf) (Telemetry.snapshot ());
  List.iter (span_line buf) (Telemetry.spans ());
  List.iter (event_line buf) (Telemetry.events ());
  with_out path (fun oc -> Buffer.output_buffer oc buf)

(* ------------------------------------------------------------------ *)
(* Chrome trace_event format.                                          *)
(* ------------------------------------------------------------------ *)

let write_chrome_trace ~path () =
  let spans = Telemetry.spans () in
  let events = Telemetry.events () in
  (* Spans carry absolute wall-clock epochs; rebase so the trace
     starts near ts 0 and stays readable. *)
  let epoch =
    List.fold_left (fun acc (s : Telemetry.span) -> Float.min acc s.t0)
      infinity spans
  in
  let buf = Buffer.create 65536 in
  let sep = ref "" in
  let add_record s =
    Buffer.add_string buf !sep;
    Buffer.add_string buf "\n    ";
    Buffer.add_string buf s;
    sep := ","
  in
  Buffer.add_string buf "{\"traceEvents\": [";
  add_record
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
     \"args\":{\"name\":\"wall clock (spans)\"}}";
  add_record
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
     \"args\":{\"name\":\"simulated time (events)\"}}";
  List.iter
    (fun (s : Telemetry.span) ->
      add_record
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%s,\
            \"dur\":%s,\"pid\":1,\"tid\":%d}"
           (Json.escape s.span_name) (Json.escape s.cat)
           (num ((s.t0 -. epoch) *. 1e6))
           (num (Float.max 0.0 (s.t1 -. s.t0) *. 1e6))
           s.dom))
    spans;
  List.iter
    (fun (e : Telemetry.event) ->
      add_record
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"sim\",\"ph\":\"i\",\"s\":\"g\",\
            \"ts\":%s,\"pid\":2,\"tid\":%d,\"args\":{\"flow\":%d,\
            \"value\":%s}}"
           (Json.escape e.ev)
           (num (e.time *. 1e6))
           (max 0 e.flow) e.flow (num e.value)))
    events;
  Buffer.add_string buf "\n  ],\n  \"displayTimeUnit\": \"ms\"\n}\n";
  with_out path (fun oc -> Buffer.output_buffer oc buf)

(* ------------------------------------------------------------------ *)
(* Summary.                                                            *)
(* ------------------------------------------------------------------ *)

let summary () =
  let buf = Buffer.create 4096 in
  let snaps =
    List.filter (fun (s : Telemetry.snapshot) -> s.count > 0)
      (Telemetry.snapshot ())
  in
  Buffer.add_string buf "telemetry summary\n";
  let section kind title fmt =
    let rows = List.filter (fun s -> s.Telemetry.snap_kind = kind) snaps in
    if rows <> [] then begin
      Buffer.add_string buf (Printf.sprintf "  %s:\n" title);
      List.iter
        (fun s -> Buffer.add_string buf (Printf.sprintf "    %s\n" (fmt s)))
        rows
    end
  in
  section Telemetry.Counter "counters" (fun s ->
      Printf.sprintf "%-36s %12d" s.snap_name s.count);
  section Telemetry.Gauge "gauges (min .. max over samples)" (fun s ->
      Printf.sprintf "%-36s %g .. %g  (n=%d)" s.snap_name s.min_v s.max_v
        s.count);
  section Telemetry.Histogram "histograms" (fun s ->
      let q p = Telemetry.quantile_of_buckets s.buckets p in
      Printf.sprintf
        "%-36s n=%-9d sum=%-12g mean=%-10g p50=%-10.3g p90=%-10.3g \
         p99=%-10.3g min=%-10g max=%g"
        s.snap_name s.count s.sum
        (s.sum /. float_of_int s.count)
        (q 0.5) (q 0.9) (q 0.99) s.min_v s.max_v);
  let spans = Telemetry.spans () in
  if spans <> [] then begin
    Buffer.add_string buf "  spans:\n";
    List.iter
      (fun (s : Telemetry.span) ->
        Buffer.add_string buf
          (Printf.sprintf "    %-36s %.3f s\n" s.span_name (s.t1 -. s.t0)))
      spans
  end;
  Buffer.add_string buf
    (Printf.sprintf "  events: %d retained, %d dropped\n"
       (List.length (Telemetry.events ()))
       (Telemetry.events_dropped ()));
  Buffer.contents buf
