(* Telemetry sinks. Every record is built as a [Json.t] and rendered
   by [Json.print], which owns the string escaping and the float
   format (shortest round-trip; NaN/infinity, which JSON lacks, as
   null). *)

module Json = Ebrc_obs.Json

let kind_name = function
  | Telemetry.Counter -> "counter"
  | Telemetry.Gauge -> "gauge"
  | Telemetry.Histogram -> "histogram"

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let add_line buf j =
  Buffer.add_string buf (Json.print j);
  Buffer.add_char buf '\n'

(* ------------------------------------------------------------------ *)
(* JSONL.                                                              *)
(* ------------------------------------------------------------------ *)

let metric (s : Telemetry.snapshot) =
  let open Json in
  let range = [ ("min", Num s.min_v); ("max", Num s.max_v) ] in
  let buckets =
    Array.to_list (Array.map (fun (lo, c) -> List [ Num lo; Int c ]) s.buckets)
  in
  let fields =
    match s.snap_kind with
    | Telemetry.Counter -> []
    | Telemetry.Gauge -> range
    | Telemetry.Histogram ->
        range @ [ ("sum", Num s.sum); ("buckets", List buckets) ]
  in
  Obj
    ([ ("type", Str (kind_name s.snap_kind)); ("name", Str s.snap_name);
       ("count", Int s.count) ]
    @ fields
    @ if s.snap_help = "" then [] else [ ("help", Str s.snap_help) ])

let event (e : Telemetry.event) =
  let open Json in
  Obj
    ([ ("type", Str "event"); ("t", Num e.time); ("kind", Str e.ev) ]
    @ (if e.flow >= 0 then [ ("flow", Int e.flow) ] else [])
    @ [ ("value", Num e.value) ])

let span (s : Telemetry.span) =
  let open Json in
  Obj
    [ ("type", Str "span"); ("name", Str s.span_name); ("cat", Str s.cat);
      ("begin_s", Num s.t0); ("dur_s", Num (s.t1 -. s.t0)); ("dom", Int s.dom) ]

let write_jsonl ~path () =
  let buf = Buffer.create 65536 in
  add_line buf
    Json.(
      Obj
        [ ("type", Str "meta"); ("schema", Int 1);
          ("source", Str "ebrc_telemetry");
          ("events_dropped", Int (Telemetry.events_dropped ())) ]);
  List.iter (fun s -> add_line buf (metric s)) (Telemetry.snapshot ());
  List.iter (fun s -> add_line buf (span s)) (Telemetry.spans ());
  List.iter (fun e -> add_line buf (event e)) (Telemetry.events ());
  with_out path (fun oc -> Buffer.output_buffer oc buf)

(* ------------------------------------------------------------------ *)
(* Chrome trace_event format.                                          *)
(* ------------------------------------------------------------------ *)

let write_chrome_trace ~path () =
  let spans = Telemetry.spans () in
  (* Spans carry absolute wall-clock epochs; rebase so the trace
     starts near ts 0 and stays readable. *)
  let epoch =
    List.fold_left (fun acc (s : Telemetry.span) -> Float.min acc s.t0)
      infinity spans
  in
  let open Json in
  let process pid name =
    Obj
      [ ("name", Str "process_name"); ("ph", Str "M"); ("pid", Int pid);
        ("tid", Int 0); ("args", Obj [ ("name", Str name) ]) ]
  in
  let slice (s : Telemetry.span) =
    Obj
      [ ("name", Str s.span_name); ("cat", Str s.cat); ("ph", Str "X");
        ("ts", Num ((s.t0 -. epoch) *. 1e6));
        ("dur", Num (Float.max 0.0 (s.t1 -. s.t0) *. 1e6));
        ("pid", Int 1); ("tid", Int s.dom) ]
  in
  let instant (e : Telemetry.event) =
    Obj
      [ ("name", Str e.ev); ("cat", Str "sim"); ("ph", Str "i");
        ("s", Str "g"); ("ts", Num (e.time *. 1e6)); ("pid", Int 2);
        ("tid", Int (max 0 e.flow));
        ("args", Obj [ ("flow", Int e.flow); ("value", Num e.value) ]) ]
  in
  let trace =
    Obj
      [ ( "traceEvents",
          List
            (process 1 "wall clock (spans)"
            :: process 2 "simulated time (events)"
            :: List.map slice spans
            @ List.map instant (Telemetry.events ())) );
        ("displayTimeUnit", Str "ms") ]
  in
  with_out path (fun oc ->
      output_string oc (print trace);
      output_char oc '\n')

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
