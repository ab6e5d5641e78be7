(* Process-wide metrics and event tracing. See telemetry.mli for how
   counts and observations reach the registry; the load-bearing choices
   here are (a) nothing counts through this registry on a hot path — a
   counter's total is one atomic that its owner bumps, or that an
   engine's absorb adds a run's growth into — and (b) every other
   registry write takes one mutex, which the observation sites
   (loss-interval histograms, chunk timings, structured events, spans)
   hit at most a few times per simulated round trip.

   Totals are integer sums, so they do not depend on how runs were
   partitioned across domains — the property the -j1-vs-jN
   determinism tests pin. *)

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let is_on () = Atomic.get on
let wall_now = Unix.gettimeofday

let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* ------------------------------------------------------------------ *)
(* Registry.                                                           *)
(* ------------------------------------------------------------------ *)

type kind = Counter | Gauge | Histogram

(* Log2 buckets covering [2^-48, 2^48); frexp gives v = m * 2^e with
   m in [0.5, 1), so v lies in [2^(e-1), 2^e) and bucket (e-1) + offset
   has lower bound 2^(i - offset). *)
let n_buckets = 96
let bucket_offset = 48

let bucket_of v =
  if v <= 0.0 then 0
  else begin
    let _, e = Float.frexp v in
    let i = e - 1 + bucket_offset in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i
  end

let bucket_lower i = Float.ldexp 1.0 (i - bucket_offset)

(* All mutable fields are guarded by [mutex]. *)
type metric = {
  mname : string;
  mkind : kind;
  mhelp : string;
  total : int Atomic.t;  (* a counter's value; 0 for other kinds *)
  mutable count : int;   (* number of gauge/histogram samples *)
  stats : float array;   (* [| sum; min; max |] — unboxed *)
  bkts : int array;      (* [||] unless the metric is a histogram *)
}

let metrics : (string, metric) Hashtbl.t = Hashtbl.create 64

let clear_metric m =
  Atomic.set m.total 0;
  m.count <- 0;
  m.stats.(0) <- 0.0;
  m.stats.(1) <- infinity;
  m.stats.(2) <- neg_infinity;
  Array.fill m.bkts 0 (Array.length m.bkts) 0

let register kind ?(help = "") name =
  locked (fun () ->
      match Hashtbl.find_opt metrics name with
      | Some m ->
          if m.mkind <> kind then
            invalid_arg
              (Printf.sprintf
                 "Telemetry: %S already registered with a different kind" name);
          m
      | None ->
          let m =
            { mname = name; mkind = kind; mhelp = help;
              total = Atomic.make 0; count = 0;
              stats = [| 0.0; infinity; neg_infinity |];
              bkts =
                (match kind with
                | Histogram -> Array.make n_buckets 0
                | Counter | Gauge -> [||]) }
          in
          Hashtbl.add metrics name m;
          m)

(* Callers hold [mutex]. *)
let record_sample m v =
  m.count <- m.count + 1;
  let st = m.stats in
  st.(0) <- st.(0) +. v;
  if v < st.(1) then st.(1) <- v;
  if v > st.(2) then st.(2) <- v

(* Quantile over log2 buckets: find the bucket where the cumulative
   count crosses [q * total] and interpolate linearly inside its
   [lo, 2*lo) range. Exact only up to bucket resolution (a factor of
   2), which is the deal the log2 layout already made. *)
let quantile_of_buckets buckets q =
  let total = Array.fold_left (fun acc (_, c) -> acc + c) 0 buckets in
  if total = 0 then nan
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let target = q *. float_of_int total in
    let last = Array.length buckets - 1 in
    let rec find i cum =
      let lo, c = buckets.(i) in
      let cum' = cum +. float_of_int c in
      if cum' >= target || i = last then begin
        let frac =
          if c = 0 then 0.0 else (target -. cum) /. float_of_int c
        in
        let frac =
          if frac < 0.0 then 0.0 else if frac > 1.0 then 1.0 else frac
        in
        lo *. (1.0 +. frac)
      end
      else find (i + 1) cum'
    in
    find 0 0.0
  end

(* Non-empty buckets as (lower bound, count), increasing. *)
let bucket_list m =
  let out = ref [] in
  for i = n_buckets - 1 downto 0 do
    if m.bkts.(i) > 0 then out := (bucket_lower i, m.bkts.(i)) :: !out
  done;
  Array.of_list !out

module Histogram = struct
  type t = metric

  let make ?help name = register Histogram ?help name

  let observe m v =
    if Atomic.get on then
      locked (fun () ->
          record_sample m v;
          let b = bucket_of v in
          m.bkts.(b) <- m.bkts.(b) + 1)
  let count m = locked (fun () -> m.count)
  let sum m = locked (fun () -> m.stats.(0))
  let quantile m q = quantile_of_buckets (locked (fun () -> bucket_list m)) q
end

(* ------------------------------------------------------------------ *)
(* Probes.                                                             *)
(* ------------------------------------------------------------------ *)

module Probe = struct
  type key = metric

  let counter ?help name = register Counter ?help name
  let gauge ?help name = register Gauge ?help name
  let count ?help name = (register Counter ?help name).total

  (* One entry per key: its getters, and for a counter the value
     already added to the totals. *)
  type entry = {
    key : metric;
    mutable gets : (unit -> int) list;
    mutable absorbed : int;
  }

  type view = entry array  (* sorted by name *)

  type set = { mutable entries : entry list; mutable cached : view option }

  let create () = { entries = []; cached = None }

  let add s key get =
    (match List.find_opt (fun e -> e.key == key) s.entries with
    | Some e -> e.gets <- get :: e.gets
    | None -> s.entries <- { key; gets = [ get ]; absorbed = 0 } :: s.entries);
    s.cached <- None

  let view s =
    match s.cached with
    | Some v -> v
    | None ->
        let v = Array.of_list s.entries in
        Array.sort (fun a b -> compare a.key.mname b.key.mname) v;
        s.cached <- Some v;
        v

  let value e = List.fold_left (fun acc get -> acc + get ()) 0 e.gets
  let size = Array.length
  let name (v : view) i = v.(i).key.mname
  let kind (v : view) i = v.(i).key.mkind

  let read (v : view) out =
    for i = 0 to Array.length v - 1 do
      Array.unsafe_set out i (value (Array.unsafe_get v i))
    done

  let absorb s =
    if Atomic.get on then begin
      let v = view s in
      let cur = Array.map value v in
      locked (fun () ->
          Array.iteri
            (fun i e ->
              match e.key.mkind with
              | Counter ->
                  let grown = cur.(i) - e.absorbed in
                  ignore (Atomic.fetch_and_add e.key.total grown);
                  e.absorbed <- cur.(i)
              | Gauge -> record_sample e.key (float_of_int cur.(i))
              | Histogram -> ())
            v)
    end
end

(* ------------------------------------------------------------------ *)
(* Snapshots.                                                          *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  snap_name : string;
  snap_kind : kind;
  snap_help : string;
  count : int;
  sum : float;
  min_v : float;
  max_v : float;
  buckets : (float * int) array;
}

let snapshot () =
  locked (fun () ->
      Hashtbl.fold
        (fun _ (m : metric) acc ->
          (* Counters take no samples, so their range is nan. *)
          let has = m.count > 0 in
          {
            snap_name = m.mname;
            snap_kind = m.mkind;
            snap_help = m.mhelp;
            count =
              (match m.mkind with
              | Counter -> Atomic.get m.total
              | Gauge | Histogram -> m.count);
            sum = (match m.mkind with Histogram -> m.stats.(0) | _ -> 0.0);
            min_v = (if has then m.stats.(1) else nan);
            max_v = (if has then m.stats.(2) else nan);
            buckets =
              (match m.mkind with
              | Histogram -> bucket_list m
              | Counter | Gauge -> [||]);
          }
          :: acc)
        metrics [])
  |> List.sort (fun a b -> compare a.snap_name b.snap_name)

(* ------------------------------------------------------------------ *)
(* Event ring.                                                         *)
(* ------------------------------------------------------------------ *)

type event = {
  time : float;
  ev : string;
  flow : int;
  value : float;
}

(* The ring is a struct of arrays: recording stores the floats unboxed
   and the ints in place, so an event allocates nothing that outlives
   the call — a record per event would be promoted into the major heap
   and marked there for as long as the ring holds it. Under [mutex];
   allocated on the first event. *)
type ring = {
  times : float array;
  kinds : string array;
  flows : int array;
  values : float array;
}

let event_capacity = ref 65536
let ring = ref None
let ev_start = ref 0   (* index of the oldest retained event *)
let ev_len = ref 0
let ev_dropped = ref 0

let event ?(flow = -1) ?(value = 0.0) ev ~time =
  if Atomic.get on then begin
    Mutex.lock mutex;
    let r =
      match !ring with
      | Some r -> r
      | None ->
          let n = !event_capacity in
          let r =
            { times = Array.make n 0.0; kinds = Array.make n "";
              flows = Array.make n 0; values = Array.make n 0.0 }
          in
          ring := Some r;
          r
    in
    let cap = Array.length r.times in
    let i =
      if !ev_len = cap then begin
        (* Full: overwrite the oldest. *)
        let i = !ev_start in
        ev_start := (i + 1) mod cap;
        incr ev_dropped;
        i
      end
      else begin
        incr ev_len;
        (!ev_start + !ev_len - 1) mod cap
      end
    in
    r.times.(i) <- time;
    r.kinds.(i) <- ev;
    r.flows.(i) <- flow;
    r.values.(i) <- value;
    Mutex.unlock mutex
  end

let events () =
  locked (fun () ->
      match !ring with
      | None -> []
      | Some r ->
          List.init !ev_len (fun k ->
              let i = (!ev_start + k) mod Array.length r.times in
              { time = r.times.(i); ev = r.kinds.(i); flow = r.flows.(i);
                value = r.values.(i) }))
  |> List.sort compare

let events_dropped () = locked (fun () -> !ev_dropped)

let clear_events () =
  ev_start := 0;
  ev_len := 0;
  ev_dropped := 0

let set_event_capacity n =
  locked (fun () ->
      event_capacity := max 16 n;
      ring := None;
      clear_events ())

(* ------------------------------------------------------------------ *)
(* Spans.                                                              *)
(* ------------------------------------------------------------------ *)

type span = {
  span_name : string;
  cat : string;
  t0 : float;
  t1 : float;
  dom : int;
}

let span_log : span list ref = ref []   (* guarded by [mutex] *)

let with_span ?(cat = "span") name f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = wall_now () in
    Fun.protect
      ~finally:(fun () ->
        let s =
          { span_name = name; cat; t0; t1 = wall_now ();
            dom = (Domain.self () :> int) }
        in
        locked (fun () -> span_log := s :: !span_log))
      f
  end

let spans () = locked (fun () -> List.rev !span_log)

(* ------------------------------------------------------------------ *)
(* Reset.                                                              *)
(* ------------------------------------------------------------------ *)

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ m -> clear_metric m) metrics;
      clear_events ();
      span_log := [])
