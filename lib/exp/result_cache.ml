(* Content-addressed scenario result cache.

   The key is a canonical rendering of every [Scenario.config] field
   (floats in hex so the key is exact, not a rounding of the config)
   plus a code-version tag that must be bumped whenever the simulator's
   observable behaviour changes — a stale tag silently invalidates
   every old record, which is the safe failure mode.

   Layering: an in-memory memo (mutex-guarded — sweep workers on pool
   domains call [run] concurrently) in front of an optional on-disk
   store of one JSON record per digest. Disk records carry the schema
   number, the version tag and the full key; a record failing any of
   those checks (or failing to parse) is counted as corrupt and
   ignored, and the next store simply overwrites it. Floats are
   serialized as hex-float strings ("%h" / [float_of_string]) so
   results round-trip bit-exactly, including nan and infinity. *)

module Tm = Ebrc_telemetry.Telemetry
module Chaos = Ebrc_chaos.Io_fault

let m_hits = Tm.Counter.make ~help:"scenario cache memo hits" "cache.hits"

let m_disk_hits =
  Tm.Counter.make ~help:"scenario cache disk hits" "cache.disk_hits"

let m_misses =
  Tm.Counter.make ~help:"scenario cache misses (full runs)" "cache.misses"

let m_stores =
  Tm.Counter.make ~help:"scenario cache disk records written" "cache.stores"

let m_corrupt =
  Tm.Counter.make ~help:"corrupt scenario cache records ignored"
    "cache.corrupt"

let m_bytes_read =
  Tm.Counter.make ~help:"scenario cache bytes read from disk"
    "cache.bytes_read"

let m_bytes_written =
  Tm.Counter.make ~help:"scenario cache bytes written to disk"
    "cache.bytes_written"

let m_store_errors =
  Tm.Counter.make ~help:"scenario cache disk-store failures"
    "cache.store_errors"

let m_tmp_reclaimed =
  Tm.Counter.make ~help:"stale cache tmp files reclaimed at startup"
    "cache.tmp_reclaimed"

let m_scrub_checked =
  Tm.Counter.make ~help:"store records examined by the scrubber"
    "scrub.checked"

let m_scrub_ok =
  Tm.Counter.make ~help:"store records that passed scrub verification"
    "scrub.ok"

let m_scrub_quarantined =
  Tm.Counter.make ~help:"corrupt store records moved to quarantine"
    "scrub.quarantined"

(* Bump whenever Scenario.run's observable behaviour changes.
   v5: result gains tfrc_halvings + fault_stats; key gains faults.
   v6: result gains fluid_stats; key gains the hybrid background. *)
let code_version = "ebrc-scenario-v6"

let enabled_flag = ref (Sys.getenv_opt "EBRC_CACHE" <> Some "0")
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

let dir_ref = ref (Sys.getenv_opt "EBRC_CACHE_DIR")
let set_dir d = dir_ref := d
let dir () = !dir_ref

type stats = {
  hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  corrupt : int;
  store_errors : int;
}

let lock = Mutex.create ()
let memo : (string, Scenario.result) Hashtbl.t = Hashtbl.create 64
let s_hits = ref 0
let s_disk_hits = ref 0
let s_misses = ref 0
let s_stores = ref 0
let s_corrupt = ref 0
let s_store_errors = ref 0
let store_warned = ref false

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let clear_memory () = locked (fun () -> Hashtbl.reset memo)

let stats () =
  locked (fun () ->
      {
        hits = !s_hits;
        disk_hits = !s_disk_hits;
        misses = !s_misses;
        stores = !s_stores;
        corrupt = !s_corrupt;
        store_errors = !s_store_errors;
      })

let reset_stats () =
  locked (fun () ->
      s_hits := 0;
      s_disk_hits := 0;
      s_misses := 0;
      s_stores := 0;
      s_corrupt := 0;
      s_store_errors := 0;
      store_warned := false)

(* ------------------------- canonical key -------------------------- *)

let queue_key (q : Scenario.queue_config) =
  match q with
  | Scenario.Drop_tail { capacity } -> Printf.sprintf "dt:%d" capacity
  | Scenario.Red_auto { capacity } -> Printf.sprintf "redauto:%d" capacity
  | Scenario.Red_manual { capacity; params = p } ->
      Printf.sprintf "red:%d:%h:%h:%h:%h:%b:%d:%b" capacity
        p.Ebrc_net.Queue_discipline.min_th p.max_th p.max_p p.wq p.byte_mode
        p.mean_pktsize p.gentle

let formula_key (k : Ebrc_formulas.Formula.kind) =
  match k with
  | Ebrc_formulas.Formula.Sqrt -> "sqrt"
  | Pftk_standard -> "pftk"
  | Pftk_simplified -> "pftk-simple"
  | Aimd { alpha; beta } -> Printf.sprintf "aimd:%h:%h" alpha beta

module Fault = Ebrc_net.Fault
module Fluid = Ebrc_net.Fluid

let window_key (w : Fault.window) =
  Printf.sprintf "%h:%h:%h" w.Fault.start w.length w.period

let fault_config_key (fc : Fault.config) =
  let flaps =
    match fc.Fault.flaps with
    | None -> "-"
    | Some f ->
        Printf.sprintf "%h:%h:%h:%h:%b" f.Fault.first_down f.down_mean
          f.up_mean f.flap_jitter f.park
  in
  let blackouts = String.concat "," (List.map window_key fc.blackouts) in
  let spike =
    match fc.spike with
    | None -> "-"
    | Some (w, d) -> Printf.sprintf "%s:%h" (window_key w) d
  in
  let reorder =
    match fc.reorder with
    | None -> "-"
    | Some (w, p, h) -> Printf.sprintf "%s:%h:%h" (window_key w) p h
  in
  let duplicate =
    match fc.duplicate with
    | None -> "-"
    | Some (w, p) -> Printf.sprintf "%s:%h" (window_key w) p
  in
  Printf.sprintf "flaps=%s,bo=%s,spike=%s,re=%s,dup=%s" flaps blackouts spike
    reorder duplicate

let faults_key (cfg : Scenario.config) =
  match cfg.Scenario.faults with
  | Some fc -> fault_config_key fc
  | None -> "none"

let background_key (cfg : Scenario.config) =
  match cfg.Scenario.background with
  | Some bg ->
      Printf.sprintf "%d:%h:%h" bg.Scenario.bg_flows bg.bg_share_cap
        bg.bg_resolution
  | None -> "none"

let canonical_key (cfg : Scenario.config) =
  Printf.sprintf
    "%s;seed=%d;bps=%h;owd=%h;queue=%s;pkt=%d;ntfrc=%d;ntcp=%d;probe=%b;l=%d;formula=%s;compr=%b;conform=%b;jitter=%h;dur=%h;warm=%h;faults=%s;bg=%s"
    code_version cfg.Scenario.seed cfg.bottleneck_bps cfg.one_way_delay
    (queue_key cfg.queue) cfg.packet_size cfg.n_tfrc cfg.n_tcp cfg.with_probe
    cfg.tfrc_l
    (formula_key cfg.tfrc_formula_kind)
    cfg.tfrc_comprehensive cfg.tfrc_conform_to_analysis cfg.reverse_jitter
    cfg.duration cfg.warmup (faults_key cfg) (background_key cfg)

let digest_of_config cfg = Digest.to_hex (Digest.string (canonical_key cfg))

(* -------------------------- serialization ------------------------- *)

(* Hex floats round-trip bit-exactly through float_of_string, and "%h"
   renders nan/infinity as the literals float_of_string accepts. *)
let add_float buf f =
  Buffer.add_char buf '"';
  Buffer.add_string buf (Printf.sprintf "%h" f);
  Buffer.add_char buf '"'

let add_float_array buf arr =
  Buffer.add_char buf '[';
  Array.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      add_float buf f)
    arr;
  Buffer.add_char buf ']'

let add_pair_array buf arr =
  Buffer.add_char buf '[';
  Array.iteri
    (fun i (a, b) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '[';
      add_float buf a;
      Buffer.add_char buf ',';
      add_float buf b;
      Buffer.add_char buf ']')
    arr;
  Buffer.add_char buf ']'

let add_measure buf (m : Scenario.flow_measure) =
  Buffer.add_string buf (Printf.sprintf "{\"flow\":%d," m.Scenario.flow);
  Buffer.add_string buf "\"throughput_pps\":";
  add_float buf m.throughput_pps;
  Buffer.add_string buf ",\"loss_event_rate\":";
  add_float buf m.loss_event_rate;
  Buffer.add_string buf ",\"mean_rtt\":";
  add_float buf m.mean_rtt;
  Buffer.add_string buf ",\"loss_intervals\":";
  add_float_array buf m.loss_intervals;
  Buffer.add_string buf ",\"estimate_pairs\":";
  add_pair_array buf m.estimate_pairs;
  Buffer.add_char buf '}'

let add_measures buf arr =
  Buffer.add_char buf '[';
  Array.iteri
    (fun i m ->
      if i > 0 then Buffer.add_char buf ',';
      add_measure buf m)
    arr;
  Buffer.add_char buf ']'

let serialize_result (r : Scenario.result) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"tfrc\":";
  add_measures buf r.Scenario.tfrc;
  Buffer.add_string buf ",\"tcp\":";
  add_measures buf r.tcp;
  Buffer.add_string buf ",\"probe\":";
  (match r.probe with
  | None -> Buffer.add_string buf "null"
  | Some m -> add_measure buf m);
  Buffer.add_string buf ",\"link_utilization\":";
  add_float buf r.link_utilization;
  Buffer.add_string buf (Printf.sprintf ",\"queue_drops\":%d," r.queue_drops);
  Buffer.add_string buf "\"sim_time\":";
  add_float buf r.sim_time;
  Buffer.add_string buf
    (Printf.sprintf ",\"tfrc_halvings\":%d,\"fault_stats\":" r.tfrc_halvings);
  (match r.fault_stats with
  | None -> Buffer.add_string buf "null"
  | Some (s : Fault.stats) ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"transitions\":%d,\"down_drops\":%d,\"parked\":%d,\"spiked\":%d,\"reordered\":%d,\"duplicated\":%d,\"blackout_drops\":%d}"
           s.Fault.transitions s.down_drops s.parked s.spiked s.reordered
           s.duplicated s.blackout_drops));
  Buffer.add_string buf ",\"fluid_stats\":";
  (match r.fluid_stats with
  | None -> Buffer.add_string buf "null"
  | Some (s : Fluid.stats) ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"advances\":%d,\"accepted\":%d,\"rejected\":%d,\"evals\":%d"
           s.Fluid.advances s.ode.Ebrc_numerics.Ode.accepted s.ode.rejected
           s.ode.evals);
      Buffer.add_string buf ",\"w\":";
      add_float buf s.w;
      Buffer.add_string buf ",\"q\":";
      add_float buf s.q;
      Buffer.add_string buf ",\"a_fg\":";
      add_float buf s.a_fg;
      Buffer.add_string buf ",\"mean_util\":";
      add_float buf s.mean_util;
      Buffer.add_string buf ",\"mean_drop\":";
      add_float buf s.mean_drop;
      Buffer.add_char buf '}');
  Buffer.add_char buf '}';
  Buffer.contents buf

let record_string ~key r =
  Printf.sprintf "{\"schema\":1,\"version\":\"%s\",\"key\":\"%s\",\"result\":%s}\n"
    code_version key (serialize_result r)

(* ------------------------- minimal parser ------------------------- *)

(* The disk records are machine-written in the fixed shape above, but
   the reader below is a small general JSON parser so a truncated or
   hand-edited record fails loudly into the corrupt path instead of
   crashing. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Corrupt

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = c then advance () else raise Corrupt in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          Buffer.add_char buf (peek ());
          advance ();
          go ()
      | '\000' -> raise Corrupt
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_int () =
    let start = !pos in
    let num_char c = (c >= '0' && c <= '9') || c = '-' in
    while num_char (peek ()) do
      advance ()
    done;
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some i -> i
    | None -> raise Corrupt
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (
          advance ();
          Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                members ((k, v) :: acc)
            | '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> raise Corrupt
          in
          members []
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (
          advance ();
          List [])
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                elements (v :: acc)
            | ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> raise Corrupt
          in
          elements []
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Int (parse_int ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise Corrupt;
  v

let member name = function
  | Obj kvs -> ( match List.assoc_opt name kvs with Some v -> v | None -> raise Corrupt)
  | _ -> raise Corrupt

let as_float = function
  | Str s -> (
      match float_of_string_opt s with Some f -> f | None -> raise Corrupt)
  | _ -> raise Corrupt

let as_int = function Int i -> i | _ -> raise Corrupt

let as_float_array = function
  | List xs -> Array.of_list (List.map as_float xs)
  | _ -> raise Corrupt

let as_pair_array = function
  | List xs ->
      Array.of_list
        (List.map
           (function
             | List [ a; b ] -> (as_float a, as_float b) | _ -> raise Corrupt)
           xs)
  | _ -> raise Corrupt

let measure_of_json j : Scenario.flow_measure =
  {
    Scenario.flow = as_int (member "flow" j);
    throughput_pps = as_float (member "throughput_pps" j);
    loss_event_rate = as_float (member "loss_event_rate" j);
    mean_rtt = as_float (member "mean_rtt" j);
    loss_intervals = as_float_array (member "loss_intervals" j);
    estimate_pairs = as_pair_array (member "estimate_pairs" j);
  }

let measures_of_json = function
  | List xs -> Array.of_list (List.map measure_of_json xs)
  | _ -> raise Corrupt

let result_of_record ~key (s : string) : Scenario.result =
  let j = parse_json s in
  (match member "schema" j with Int 1 -> () | _ -> raise Corrupt);
  (match member "version" j with
  | Str v when v = code_version -> ()
  | _ -> raise Corrupt);
  (* The full key is stored and compared, so a digest collision (or a
     renamed file) can never serve the wrong result. *)
  (match member "key" j with Str k when k = key -> () | _ -> raise Corrupt);
  let r = member "result" j in
  {
    Scenario.tfrc = measures_of_json (member "tfrc" r);
    tcp = measures_of_json (member "tcp" r);
    probe = (match member "probe" r with Null -> None | m -> Some (measure_of_json m));
    link_utilization = as_float (member "link_utilization" r);
    queue_drops = as_int (member "queue_drops" r);
    sim_time = as_float (member "sim_time" r);
    tfrc_halvings = as_int (member "tfrc_halvings" r);
    fault_stats =
      (match member "fault_stats" r with
      | Null -> None
      | fs ->
          Some
            {
              Fault.transitions = as_int (member "transitions" fs);
              down_drops = as_int (member "down_drops" fs);
              parked = as_int (member "parked" fs);
              spiked = as_int (member "spiked" fs);
              reordered = as_int (member "reordered" fs);
              duplicated = as_int (member "duplicated" fs);
              blackout_drops = as_int (member "blackout_drops" fs);
            });
    fluid_stats =
      (match member "fluid_stats" r with
      | Null -> None
      | fs ->
          Some
            {
              Fluid.advances = as_int (member "advances" fs);
              ode =
                {
                  Ebrc_numerics.Ode.accepted = as_int (member "accepted" fs);
                  rejected = as_int (member "rejected" fs);
                  evals = as_int (member "evals" fs);
                };
              w = as_float (member "w" fs);
              q = as_float (member "q" fs);
              a_fg = as_float (member "a_fg" fs);
              mean_util = as_float (member "mean_util" fs);
              mean_drop = as_float (member "mean_drop" fs);
            });
  }

(* --------------------------- disk store --------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let disk_load ~dir ~key digest =
  let path = Filename.concat dir (digest ^ ".json") in
  if not (Sys.file_exists path) then None
  else
    match
      let s = read_file path in
      if Tm.is_on () then Tm.Counter.add m_bytes_read (String.length s);
      result_of_record ~key s
    with
    | r -> Some r
    | exception _ ->
        locked (fun () -> incr s_corrupt);
        if Tm.is_on () then Tm.Counter.incr m_corrupt;
        None

let disk_store ~dir ~key digest r =
  match
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (digest ^ ".json") in
    let tmp =
      Filename.concat dir
        (Printf.sprintf ".%s.%d.tmp" digest (Unix.getpid ()))
    in
    Chaos.guard_open tmp;
    let oc = open_out_bin tmp in
    let record = record_string ~key r in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Chaos.write oc record;
        Chaos.fsync oc);
    Chaos.guard_rename path;
    Sys.rename tmp path;
    String.length record
  with
  | n ->
      locked (fun () -> incr s_stores);
      if Tm.is_on () then begin
        Tm.Counter.incr m_stores;
        Tm.Counter.add m_bytes_written n
      end
  | exception e ->
      (* A read-only or vanished cache directory (or a full disk) must
         never fail the experiment — the result is still returned from
         memory. Count the failure and warn once per process so the
         silent-degradation mode is at least visible. *)
      locked (fun () ->
          incr s_store_errors;
          if not !store_warned then begin
            store_warned := true;
            Printf.eprintf
              "ebrc: warning: scenario cache store to %s failed (%s); \
               continuing with the in-memory cache only\n\
               %!"
              dir (Printexc.to_string e)
          end);
      if Tm.is_on () then Tm.Counter.incr m_store_errors

(* ------------------------ store as a service ---------------------- *)

(* The sweep service (lib/serve) treats the disk store as the shared
   result backbone for many worker processes: every accessor below
   takes an explicit directory and never touches the per-process memo,
   so a million-task worker stays O(1) in memory and a publication is
   visible to every other process the instant the rename lands. *)

let load_from ~dir cfg =
  let key = canonical_key cfg in
  disk_load ~dir ~key (Digest.to_hex (Digest.string key))

let store_to ~dir cfg r =
  let key = canonical_key cfg in
  disk_store ~dir ~key (Digest.to_hex (Digest.string key)) r

(* Full load + verification, not a bare [Sys.file_exists]: a truncated
   or stale-version record counts as unpublished, so a resumed sweep
   recomputes it instead of trusting a corpse. *)
let published ~dir cfg = load_from ~dir cfg <> None

let list_store ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      let digests =
        Array.to_list entries
        |> List.filter_map (fun e ->
               if String.length e > 0 && e.[0] <> '.'
                  && Filename.check_suffix e ".json"
               then Some (Filename.chop_suffix e ".json")
               else None)
      in
      List.sort String.compare digests

(* A writer SIGKILL'd between open and rename strands its
   [.<digest>.<pid>.tmp]; they are invisible to readers (digest file
   names never start with '.') but accumulate forever. The age gate
   keeps a live writer's in-flight tmp safe: anything younger than
   [max_age] is left alone. *)
let gc_tmp ?(max_age = 3600.0) dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | entries ->
      let now = Unix.gettimeofday () in
      Array.fold_left
        (fun n e ->
          if String.length e > 0 && e.[0] = '.'
             && Filename.check_suffix e ".tmp"
          then
            let p = Filename.concat dir e in
            match Unix.stat p with
            | st when now -. st.Unix.st_mtime > max_age -> (
                match Unix.unlink p with
                | () ->
                    if Tm.is_on () then Tm.Counter.incr m_tmp_reclaimed;
                    n + 1
                | exception Unix.Unix_error _ -> n)
            | _ -> n
            | exception Unix.Unix_error _ -> n
          else n)
        0 entries

(* ------------------------------ scrub ----------------------------- *)

let rec mkdir_p d =
  if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Full verification of a store record against the digest its file name
   claims: parse, schema, version tag, MD5(key) = digest, and the
   result payload itself must decode. *)
let verify_record ~digest (s : string) =
  match
    let j = parse_json s in
    let k = match member "key" j with Str k -> k | _ -> raise Corrupt in
    if Digest.to_hex (Digest.string k) <> digest then raise Corrupt;
    ignore (result_of_record ~key:k s)
  with
  | () -> true
  | exception _ -> false

type scrub_report = {
  scrub_checked : int;
  scrub_ok : int;
  scrub_quarantined : string list;
  scrub_dir : string;
}

let scrub ?quarantine ~dir () =
  let qdir =
    match quarantine with
    | Some q -> q
    | None -> Filename.concat dir "quarantine"
  in
  let checked = ref 0 and ok = ref 0 and quarantined = ref [] in
  List.iter
    (fun digest ->
      incr checked;
      if Tm.is_on () then Tm.Counter.incr m_scrub_checked;
      let path = Filename.concat dir (digest ^ ".json") in
      let good =
        match read_file path with
        | s -> verify_record ~digest s
        | exception _ -> false
      in
      if good then begin
        incr ok;
        if Tm.is_on () then Tm.Counter.incr m_scrub_ok
      end
      else begin
        (* Never silently delete: the corpse moves to quarantine under
           its own name (suffixed if a previous scrub already parked
           one) so it stays available for postmortem. *)
        mkdir_p qdir;
        let dst =
          let base = Filename.concat qdir (digest ^ ".json") in
          if not (Sys.file_exists base) then base
          else
            let rec pick i =
              let p = Printf.sprintf "%s.%d" base i in
              if Sys.file_exists p then pick (i + 1) else p
            in
            pick 1
        in
        match Unix.rename path dst with
        | () ->
            quarantined := digest :: !quarantined;
            if Tm.is_on () then Tm.Counter.incr m_scrub_quarantined
        | exception Unix.Unix_error _ -> ()
      end)
    (list_store ~dir);
  {
    scrub_checked = !checked;
    scrub_ok = !ok;
    scrub_quarantined = List.rev !quarantined;
    scrub_dir = qdir;
  }

(* ------------------------------ run ------------------------------- *)

let run cfg =
  if not !enabled_flag then Scenario.run cfg
  else begin
    let key = canonical_key cfg in
    match locked (fun () -> Hashtbl.find_opt memo key) with
    | Some r ->
        locked (fun () -> incr s_hits);
        if Tm.is_on () then Tm.Counter.incr m_hits;
        r
    | None -> (
        let digest = Digest.to_hex (Digest.string key) in
        let from_disk =
          match !dir_ref with
          | None -> None
          | Some dir -> disk_load ~dir ~key digest
        in
        match from_disk with
        | Some r ->
            locked (fun () ->
                incr s_disk_hits;
                Hashtbl.replace memo key r);
            if Tm.is_on () then Tm.Counter.incr m_disk_hits;
            r
        | None ->
            let r = Scenario.run cfg in
            locked (fun () ->
                incr s_misses;
                Hashtbl.replace memo key r);
            if Tm.is_on () then Tm.Counter.incr m_misses;
            (match !dir_ref with
            | None -> ()
            | Some dir -> disk_store ~dir ~key digest r);
            r)
  end
