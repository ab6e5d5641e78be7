(* On-disk task queue with O_EXCL lease claims; see the .mli for the
   protocol and the failure model. *)

module Tm = Ebrc_telemetry.Telemetry
module Json = Ebrc_obs.Json
module Chaos = Ebrc_chaos.Io_fault

let c_claims =
  Tm.Probe.count ~help:"queue leases claimed" "task_queue.claims"

let c_conflicts =
  Tm.Probe.count ~help:"queue claim attempts lost to a live lease"
    "task_queue.claim_conflicts"

let c_reclaimed =
  Tm.Probe.count ~help:"expired queue leases reclaimed"
    "task_queue.leases_reclaimed"

let c_completed =
  Tm.Probe.count ~help:"queue tasks completed" "task_queue.completed"

let c_failed =
  Tm.Probe.count ~help:"queue tasks terminally failed" "task_queue.failed"

let c_poisoned =
  Tm.Probe.count ~help:"queue tasks poisoned by the crash-loop breaker"
    "task_queue.poisoned"

type t = {
  root : string;
  tasks_dir : string;
  leases_dir : string;
  failed_dir : string;
  poisoned_dir : string;
  streams : string;
  torn_grace : float;
}

(* A lease that cannot be parsed is usually a claimant killed between
   the O_EXCL create and the write. The torn file still holds the
   lease (we cannot know its deadline), but only for a grace period —
   after that it reads as expired and gets reclaimed. Configurable
   per queue ([?torn_grace]) or fleet-wide via EBRC_LEASE_GRACE. *)
let default_torn_grace () =
  Option.value ~default:10.0
    (Ebrc_obs.Env.knob ~empty:10.0 "EBRC_LEASE_GRACE" Ebrc_obs.Env.seconds)

let create ?torn_grace ~dir () =
  let t =
    {
      root = dir;
      tasks_dir = Filename.concat dir "tasks";
      leases_dir = Filename.concat dir "leases";
      failed_dir = Filename.concat dir "failed";
      poisoned_dir = Filename.concat dir "poisoned";
      streams = Filename.concat dir "streams";
      torn_grace =
        (match torn_grace with
        | Some g -> g
        | None -> default_torn_grace ());
    }
  in
  List.iter Chaos.mkdir_p
    [ t.tasks_dir; t.leases_dir; t.failed_dir; t.poisoned_dir; t.streams ];
  t

let torn_grace t = t.torn_grace
let streams_dir t = t.streams
let task_path t digest = Filename.concat t.tasks_dir (digest ^ ".json")
let lease_path t digest = Filename.concat t.leases_dir (digest ^ ".lease")
let failed_path t digest = Filename.concat t.failed_dir (digest ^ ".json")

let list_dir dir ~suffix =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun e ->
             if String.length e > 0 && e.[0] <> '.'
                && Filename.check_suffix e suffix
             then Some (Filename.chop_suffix e suffix)
             else None)
      |> List.sort String.compare

(* Queue metadata writes must land even under fault injection — the
   faults are probabilistic, so a bounded retry converges almost
   surely. Chaos off: the first attempt is the only one. *)
let atomic_write_retry path content =
  let rec go attempt =
    let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
    match Chaos.publish ~tmp path content with
    | () -> ()
    | exception Sys_error _ when Chaos.enabled () && attempt < 100 ->
        go (attempt + 1)
  in
  go 0

let enqueue t ~digest ~spec =
  if not (Sys.file_exists (task_path t digest)) then
    atomic_write_retry (task_path t digest) (spec ^ "\n")

let pending t = list_dir t.tasks_dir ~suffix:".json"
let read_spec t ~digest = Chaos.read_file (task_path t digest)
let leased t = List.length (list_dir t.leases_dir ~suffix:".lease")

(* ------------------------------ leases ---------------------------- *)

type claim_outcome = Claimed | Busy | Gone

(* Lease, failure and poison bodies: one schema-1 object per file. *)
let record fields = Json.(print (Obj (("schema", Int 1) :: fields))) ^ "\n"

(* The deadline is an exact hex float, in a string. *)
let lease_body ~worker ~deadline =
  Json.(
    record
      [ ("worker", Str worker); ("pid", Int (Unix.getpid ()));
        ("deadline", hex deadline) ])

(* O_EXCL create: the one atomic "exactly one winner" primitive the
   whole queue rests on. Under chaos the body may land torn
   ([Chaos.maim]) while the claim itself stands — exactly the
   crashed-mid-write shape the torn-lease grace covers. *)
let create_exclusive path content =
  match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let b = Bytes.of_string (Chaos.maim content) in
          ignore (Unix.write fd b 0 (Bytes.length b)));
      true
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false

let lease_expired t path ~now =
  match Chaos.read_file path with
  | None -> false (* vanished: released or completed; not ours to take *)
  | Some body -> (
      match Json.decode (Json.hex_field "deadline") body with
      | Ok deadline -> now > deadline
      | Error _ -> (
          (* Torn, or a deadline that does not read: the grace. *)
          match Unix.stat path with
          | st -> now -. st.Unix.st_mtime > t.torn_grace
          | exception Unix.Unix_error _ -> false))

let claim t ~worker ~ttl ~digest =
  if not (Sys.file_exists (task_path t digest)) then Gone
  else begin
    let now = Chaos.now () in
    let path = lease_path t digest in
    let body = lease_body ~worker ~deadline:(now +. ttl) in
    let try_create () =
      if create_exclusive path body then begin
        Atomic.incr c_claims;
        Claimed
      end
      else begin
        Atomic.incr c_conflicts;
        Busy
      end
    in
    if not (Sys.file_exists path) then try_create ()
    else if not (lease_expired t path ~now) then begin
      Atomic.incr c_conflicts;
      Busy
    end
    else begin
      (* Expired: rename it away first. Rename is atomic, so of any
         number of concurrent reclaimers exactly one succeeds; the
         losers see ENOENT and move on. *)
      let grave =
        Filename.concat t.leases_dir
          (Printf.sprintf ".%s.%s.%d.reclaim" digest worker (Unix.getpid ()))
      in
      match Unix.rename path grave with
      | () ->
          (try Unix.unlink grave with Unix.Unix_error _ -> ());
          Atomic.incr c_reclaimed;
          try_create ()
      | exception Unix.Unix_error _ -> Busy
    end
  end

let unlink_quiet path =
  try Unix.unlink path with Unix.Unix_error _ -> ()

let release t ~digest = unlink_quiet (lease_path t digest)

let complete t ~digest =
  unlink_quiet (task_path t digest);
  unlink_quiet (lease_path t digest);
  Atomic.incr c_completed

let fail t ~worker ~digest ~message =
  atomic_write_retry (failed_path t digest)
    Json.(
      record
        [ ("digest", Str digest); ("worker", Str worker);
          ("message", Str message) ]);
  unlink_quiet (task_path t digest);
  unlink_quiet (lease_path t digest);
  Atomic.incr c_failed

let record_messages dir ~path_of =
  List.filter_map
    (fun digest ->
      match Chaos.read_file (path_of digest) with
      | None -> None
      | Some body ->
          let message =
            match Json.decode (Json.str "message") body with
            | Ok m -> m
            | Error _ -> "unreadable failure record"
          in
          Some (digest, message))
    (list_dir dir ~suffix:".json")

let failed t = record_messages t.failed_dir ~path_of:(failed_path t)
let clear_failed t ~digest = unlink_quiet (failed_path t digest)

(* --------------------------- poison / reclaim --------------------- *)

let poisoned_path t digest = Filename.concat t.poisoned_dir (digest ^ ".json")

let poison t ~digest ~message =
  atomic_write_retry (poisoned_path t digest)
    (record [ ("digest", Json.Str digest); ("message", Json.Str message) ]);
  unlink_quiet (task_path t digest);
  unlink_quiet (lease_path t digest);
  Atomic.incr c_poisoned

let poisoned t = record_messages t.poisoned_dir ~path_of:(poisoned_path t)
let clear_poison t ~digest = unlink_quiet (poisoned_path t digest)

let lease_holders t =
  List.filter_map
    (fun digest ->
      match Chaos.read_file (lease_path t digest) with
      | None -> None
      | Some body ->
          Result.to_option (Json.decode (Json.str "worker") body)
          |> Option.map (fun w -> (digest, w)))
    (list_dir t.leases_dir ~suffix:".lease")

let reclaim_worker t ~worker =
  List.filter_map
    (fun (digest, w) ->
      if w = worker then begin
        release t ~digest;
        Some digest
      end
      else None)
    (lease_holders t)
