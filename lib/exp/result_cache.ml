(* Content-addressed scenario result store.

   The key is the config's Codec bytes (floats in hex so the key is
   exact, not a rounding of the config). Records carry a code-version
   tag that must be bumped whenever the simulator's observable
   behaviour changes — a stale tag silently invalidates every old
   record, which is the safe failure mode.

   Within one process, [Work.run] already runs each distinct config of
   a batch once; this module adds only the optional on-disk store of
   one JSON record per digest, shared across processes. Disk records
   carry the schema number, the version tag and the full key; a record
   failing any of those checks (or failing to parse) is counted as
   corrupt and ignored, and the next store simply overwrites it.
   Floats are serialized as hex-float strings ("%h" /
   [float_of_string]) so results round-trip bit-exactly, including nan
   and infinity. *)

module Tm = Ebrc_telemetry.Telemetry
module Chaos = Ebrc_chaos.Io_fault

(* One count per cache event: [stats] reads the first five, and
   [gc_tmp] and [scrub] add their call's tallies once at the end. *)
let c_disk_hits =
  Tm.Probe.count ~help:"scenario cache disk hits" "cache.disk_hits"

let c_misses =
  Tm.Probe.count ~help:"scenario cache misses (full runs)" "cache.misses"

let c_stores =
  Tm.Probe.count ~help:"scenario cache disk records written" "cache.stores"

let c_corrupt =
  Tm.Probe.count ~help:"corrupt scenario cache records ignored"
    "cache.corrupt"

let c_store_errors =
  Tm.Probe.count ~help:"scenario cache disk-store failures"
    "cache.store_errors"

let c_bytes_read =
  Tm.Probe.count ~help:"scenario cache bytes read from disk"
    "cache.bytes_read"

let c_bytes_written =
  Tm.Probe.count ~help:"scenario cache bytes written to disk"
    "cache.bytes_written"

let c_tmp_reclaimed =
  Tm.Probe.count ~help:"stale cache tmp files reclaimed at startup"
    "cache.tmp_reclaimed"

let c_scrub_checked =
  Tm.Probe.count ~help:"store records examined by the scrubber"
    "scrub.checked"

let c_scrub_ok =
  Tm.Probe.count ~help:"store records that passed scrub verification"
    "scrub.ok"

let c_scrub_quarantined =
  Tm.Probe.count ~help:"corrupt store records moved to quarantine"
    "scrub.quarantined"

let add c n = ignore (Atomic.fetch_and_add c n)

(* Bump whenever Scenario.run's observable behaviour changes.
   v5: result gains tfrc_halvings + fault_stats; key gains faults.
   v6: result gains fluid_stats; key gains the hybrid background.
   v7: the key is the config's Codec bytes, stored as a JSON object. *)
let code_version = "ebrc-scenario-v7"

let dir_ref = ref None
let set_dir d = dir_ref := d

type stats = {
  disk_hits : int;
  misses : int;
  stores : int;
  corrupt : int;
  store_errors : int;
}

let stats () =
  {
    disk_hits = Atomic.get c_disk_hits;
    misses = Atomic.get c_misses;
    stores = Atomic.get c_stores;
    corrupt = Atomic.get c_corrupt;
    store_errors = Atomic.get c_store_errors;
  }

(* ------------------------------ key ------------------------------- *)

module Json = Ebrc_obs.Json
module Fault = Ebrc_net.Fault
module Fluid = Ebrc_net.Fluid

(* The key is the config's codec bytes — the very bytes of its manifest
   task — and the record file is named by their MD5. The version tag
   lives in the record, so a record from other code at the same digest
   reads as stale and is overwritten by the next store. *)
let digest_of_key key = Digest.to_hex (Digest.string key)
let digest_of_config cfg = digest_of_key (Codec.encode cfg)

(* ------------------------- store record -------------------------- *)

let floats arr = Json.List (Array.to_list (Array.map Json.hex arr))

let measure_json (m : Scenario.flow_measure) : Json.t =
  Obj
    [
      ("flow", Int m.Scenario.flow);
      ("throughput_pps", Json.hex m.throughput_pps);
      ("loss_event_rate", Json.hex m.loss_event_rate);
      ("mean_rtt", Json.hex m.mean_rtt);
      ("loss_intervals", floats m.loss_intervals);
      ( "estimate_pairs",
        List
          (Array.to_list
             (Array.map (fun (a, b) -> floats [| a; b |]) m.estimate_pairs)) );
    ]

let measures_json arr = Json.List (Array.to_list (Array.map measure_json arr))

let opt enc = function None -> Json.Null | Some v -> enc v

(* [hop_stats] is omitted when [None], so a result without a hop keeps
   its bytes. *)
let result_json (r : Scenario.result) : Json.t =
  let fields : (string * Json.t) list =
    [
      ("tfrc", measures_json r.Scenario.tfrc);
      ("tcp", measures_json r.tcp);
      ("probe", opt measure_json r.probe);
      ("link_utilization", Json.hex r.link_utilization);
      ("queue_drops", Int r.queue_drops);
      ("sim_time", Json.hex r.sim_time);
      ("tfrc_halvings", Int r.tfrc_halvings);
      ( "fault_stats",
        opt
          (fun (s : Fault.stats) : Json.t ->
            Obj
              [
                ("transitions", Int s.Fault.transitions);
                ("down_drops", Int s.down_drops);
                ("parked", Int s.parked);
                ("spiked", Int s.spiked);
                ("reordered", Int s.reordered);
                ("duplicated", Int s.duplicated);
                ("blackout_drops", Int s.blackout_drops);
              ])
          r.fault_stats );
      ( "fluid_stats",
        opt
          (fun (s : Fluid.stats) : Json.t ->
            Obj
              [
                ("advances", Int s.Fluid.advances);
                ("accepted", Int s.ode.Ebrc_numerics.Ode.accepted);
                ("rejected", Int s.ode.rejected);
                ("evals", Int s.ode.evals);
                ("w", Json.hex s.w);
                ("q", Json.hex s.q);
                ("a_fg", Json.hex s.a_fg);
                ("mean_util", Json.hex s.mean_util);
                ("mean_drop", Json.hex s.mean_drop);
              ])
          r.fluid_stats );
    ]
  in
  Obj
    (match r.hop_stats with
    | None -> fields
    | Some h ->
        fields
        @ [
            ( "hop_stats",
              Obj
                [
                  ("hop_drops", Int h.Scenario.hop_drops);
                  ("hop_utilization", Json.hex h.hop_utilization);
                ] );
          ])

let serialize_result r = Json.print (result_json r)

let record_string cfg r =
  Json.print
    (Obj
       [
         ("schema", Int 1);
         ("version", Str code_version);
         ("key", Codec.to_json cfg);
         ("result", result_json r);
       ])
  ^ "\n"

let float_array name j =
  Array.of_list (List.map (Json.of_hex name) (Json.list name Fun.id j))

let measure_of j : Scenario.flow_measure =
  {
    Scenario.flow = Json.int "flow" j;
    throughput_pps = Json.hex_field "throughput_pps" j;
    loss_event_rate = Json.hex_field "loss_event_rate" j;
    mean_rtt = Json.hex_field "mean_rtt" j;
    loss_intervals = float_array "loss_intervals" j;
    estimate_pairs =
      Array.of_list
        (Json.list "estimate_pairs"
           (fun p ->
             match p with
             | Json.List [ a; b ] ->
                 (Json.of_hex "pair" a, Json.of_hex "pair" b)
             | _ -> Json.bad "estimate_pairs: expected a pair")
           j);
  }

let measures name j = Array.of_list (Json.list name measure_of j)

let result_of j : Scenario.result =
  {
    Scenario.tfrc = measures "tfrc" j;
    tcp = measures "tcp" j;
    probe = Json.opt_field "probe" measure_of j;
    link_utilization = Json.hex_field "link_utilization" j;
    queue_drops = Json.int "queue_drops" j;
    sim_time = Json.hex_field "sim_time" j;
    tfrc_halvings = Json.int "tfrc_halvings" j;
    fault_stats =
      Json.opt_field "fault_stats"
        (fun fs ->
          {
            Fault.transitions = Json.int "transitions" fs;
            down_drops = Json.int "down_drops" fs;
            parked = Json.int "parked" fs;
            spiked = Json.int "spiked" fs;
            reordered = Json.int "reordered" fs;
            duplicated = Json.int "duplicated" fs;
            blackout_drops = Json.int "blackout_drops" fs;
          })
        j;
    fluid_stats =
      Json.opt_field "fluid_stats"
        (fun fs ->
          {
            Fluid.advances = Json.int "advances" fs;
            ode =
              {
                Ebrc_numerics.Ode.accepted = Json.int "accepted" fs;
                rejected = Json.int "rejected" fs;
                evals = Json.int "evals" fs;
              };
            w = Json.hex_field "w" fs;
            q = Json.hex_field "q" fs;
            a_fg = Json.hex_field "a_fg" fs;
            mean_util = Json.hex_field "mean_util" fs;
            mean_drop = Json.hex_field "mean_drop" fs;
          })
        j;
    hop_stats =
      Json.opt_field "hop_stats"
        (fun h ->
          {
            Scenario.hop_drops = Json.int "hop_drops" h;
            hop_utilization = Json.hex_field "hop_utilization" h;
          })
        j;
  }

type record = Valid of string * Scenario.result | Stale | Corrupt of string

(* Parse and check a store record: schema, version tag, a key that
   decodes as a config, and a result that decodes. [Valid] carries the
   key's codec bytes, [Corrupt] the parse error or the decoder's
   message, which names the field. *)
let decode_record s =
  let check j =
    if Json.int "schema" j <> 1 then Json.bad "schema: unsupported schema";
    if Json.str "version" j <> code_version then Stale
    else begin
      ignore (Json.nested "key" Codec.config_of j);
      Valid (Json.print (Json.field "key" j), Json.nested "result" result_of j)
    end
  in
  match Json.decode check s with
  | Ok r -> r
  | Error m -> Corrupt m

(* ---------------------------- the store --------------------------- *)

(* Every accessor takes an explicit directory: [run] passes the [set_dir] one,
   and the sweep service (lib/serve) treats the store as the shared
   result backbone for many worker processes, so a publication is
   visible to every other process the instant the rename lands. *)

let load_from ~dir cfg =
  let key = Codec.encode cfg in
  let path = Filename.concat dir (digest_of_key key ^ ".json") in
  if not (Sys.file_exists path) then None
  else
    match
      Option.map
        (fun s ->
          add c_bytes_read (String.length s);
          decode_record s)
        (Chaos.read_file path)
    with
    (* The full key is compared, so a digest collision (or a renamed
       file) can never serve the wrong result. *)
    | Some (Valid (k, r)) when k = key -> Some r
    | _ | (exception _) ->
        Atomic.incr c_corrupt;
        None

let store_to ~dir cfg r =
  let digest = digest_of_config cfg in
  match
    (* Two workers publishing their first records race to create the
       store; [mkdir_p] tolerates the loser's existing dir. The tmp is
       dot-prefixed so [gc_tmp] can reclaim it. *)
    Chaos.mkdir_p dir;
    let tmp =
      Filename.concat dir
        (Printf.sprintf ".%s.%d.tmp" digest (Unix.getpid ()))
    in
    let record = record_string cfg r in
    Chaos.publish ~tmp (Filename.concat dir (digest ^ ".json")) record;
    String.length record
  with
  | n ->
      Atomic.incr c_stores;
      add c_bytes_written n
  | exception e ->
      (* A read-only or vanished cache directory (or a full disk) must
         never fail the experiment — the caller still has the result.
         Count the failure, and warn on the first one counted (once
         per process: only a telemetry reset zeroes the count) so the
         silent-degradation mode is at least visible. *)
      if Atomic.fetch_and_add c_store_errors 1 = 0 then
        Printf.eprintf
          "ebrc: warning: scenario cache store to %s failed (%s); \
           continuing without storing results\n\
           %!"
          dir (Printexc.to_string e)

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
      let reclaim e =
        String.length e > 0 && e.[0] = '.'
        && Filename.check_suffix e ".tmp"
        &&
        let p = Filename.concat dir e in
        match Unix.stat p with
        | st when now -. st.Unix.st_mtime > max_age -> (
            match Unix.unlink p with
            | () -> true
            | exception Unix.Unix_error _ -> false)
        | _ -> false
        | exception Unix.Unix_error _ -> false
      in
      let n =
        Array.fold_left (fun n e -> if reclaim e then n + 1 else n) 0 entries
      in
      add c_tmp_reclaimed n;
      n

(* ------------------------------ scrub ----------------------------- *)

(* Full verification of a store record against the digest its file name
   claims: [decode_record]'s checks plus MD5(key) = digest. *)
let verify_record ~digest s =
  match decode_record s with
  | Valid (k, _) when digest_of_key k <> digest -> Corrupt "digest mismatch"
  | v -> v

type scrub_report = {
  scrub_checked : int;
  scrub_ok : int;
  scrub_quarantined : (string * string) list;
  scrub_stale : string list;
  scrub_dir : string;
}

let scrub ?quarantine ~dir () =
  let qdir =
    match quarantine with
    | Some q -> q
    | None -> Filename.concat dir "quarantine"
  in
  let checked = ref 0 and ok = ref 0 and quarantined = ref [] in
  let stale = ref [] in
  List.iter
    (fun digest ->
      incr checked;
      let path = Filename.concat dir (digest ^ ".json") in
      let verdict =
        match Chaos.read_file path with
        | Some s -> verify_record ~digest s
        | None -> Corrupt "unreadable"
      in
      match verdict with
      | Valid _ -> incr ok
      | Stale | Corrupt _ ->
          (* Never silently delete: the corpse moves to quarantine under
             its own name (suffixed if a previous scrub already parked
             one) so it stays available for postmortem. *)
          Chaos.mkdir_p qdir;
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
              let why =
                match verdict with
                | Corrupt m -> "corrupt: " ^ m
                | _ -> "stale version"
              in
              quarantined := (digest, why) :: !quarantined;
              if verdict = Stale then stale := digest :: !stale
          | exception Unix.Unix_error _ -> ())
    (list_store ~dir);
  add c_scrub_checked !checked;
  add c_scrub_ok !ok;
  add c_scrub_quarantined (List.length !quarantined);
  {
    scrub_checked = !checked;
    scrub_ok = !ok;
    scrub_quarantined = List.rev !quarantined;
    scrub_stale = List.rev !stale;
    scrub_dir = qdir;
  }

(* ------------------------------ run ------------------------------- *)

let run cfg =
  match !dir_ref with
  | None -> Scenario.run cfg
  | Some dir -> (
      match load_from ~dir cfg with
      | Some r ->
          Atomic.incr c_disk_hits;
          r
      | None ->
          let r = Scenario.run cfg in
          Atomic.incr c_misses;
          store_to ~dir cfg r;
          r)
