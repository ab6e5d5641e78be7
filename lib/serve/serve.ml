(* Manifest → queue → supervised worker fleet → watch; see the .mli. *)

module Rc = Ebrc_exp.Result_cache
module Status = Ebrc_obs.Status
module Chaos = Ebrc_chaos.Io_fault
module Prng = Ebrc_rng.Prng

type config = {
  manifest_path : string;
  queue_dir : string;
  store_dir : string;
  workers : int;
  ttl : float;
  retries : int;
  poll : float;
  watchdog : float;
  max_strikes : int;
  chaos_kill : int option;
  quiet : bool;
}

let default ~manifest_path =
  let queue_dir = manifest_path ^ ".queue" in
  {
    manifest_path;
    queue_dir;
    store_dir = Filename.concat queue_dir "store";
    workers = 2;
    ttl = 300.0;
    retries = 1;
    poll = 0.25;
    watchdog = 120.0;
    max_strikes = 3;
    chaos_kill = None;
    quiet = false;
  }

type progress = {
  total : int;
  published : int;
  queued : int;
  leased : int;
  failed : int;
  poisoned : int;
}

type taxonomy = {
  mutable t_restarts : int;
  mutable t_stall_kills : int;
  mutable t_chaos_kills : int;
  mutable t_strikes : int;
}

(* Exponential-backoff respawn delay after the n-th consecutive death
   (n from 0), capped so a flapping fleet still probes for recovery. *)
let backoff n = Float.min 15.0 (0.5 *. Float.pow 2.0 (float_of_int n))

(* Consecutive deaths without any fleet-wide publication progress
   before a worker slot is retired — the fleet-level circuit breaker
   backing up the per-digest poison one. *)
let max_barren_restarts = 5

(* Distinct (digest, config) pairs: a manifest may repeat a config;
   identity is the digest, so duplicates collapse to one task. *)
let distinct_tasks (m : Manifest.t) =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun cfg ->
      let d = Rc.digest_of_config cfg in
      if Hashtbl.mem seen d then None
      else begin
        Hashtbl.add seen d ();
        Some (d, cfg)
      end)
    m.Manifest.tasks

type watch = {
  w_store : string;
  w_queue : Task_queue.t;
  w_tasks : (string * Ebrc_exp.Scenario.config) list;
  w_seen : (string, unit) Hashtbl.t;  (** digests counted as published *)
}

let watch ~store_dir ~queue m =
  { w_store = store_dir; w_queue = queue; w_tasks = distinct_tasks m;
    w_seen = Hashtbl.create 64 }

(* Queue state is re-listed every call; store records are re-loaded
   only for digests not yet counted, unless [full]. *)
let count ~full w =
  if full then Hashtbl.reset w.w_seen;
  List.iter
    (fun (d, c) ->
      if (not (Hashtbl.mem w.w_seen d)) && Rc.published ~dir:w.w_store c then
        Hashtbl.replace w.w_seen d ())
    w.w_tasks;
  let q = w.w_queue in
  {
    total = List.length w.w_tasks;
    published = Hashtbl.length w.w_seen;
    queued = List.length (Task_queue.pending q);
    leased = Task_queue.leased q;
    failed = List.length (Task_queue.failed q);
    poisoned = List.length (Task_queue.poisoned q);
  }

let poll w = count ~full:false w
let verify w = count ~full:true w
let progress ~store_dir ~queue m = verify (watch ~store_dir ~queue m)

(* Digests found published here are counted in [w], so the first
   [poll] does not load their records again. *)
let plan_watch ?gc_max_age w =
  let store_dir = w.w_store and queue = w.w_queue in
  ignore (Rc.gc_tmp ?max_age:gc_max_age store_dir);
  let outstanding = ref 0 in
  List.iter
    (fun (digest, cfg) ->
      if Rc.published ~dir:store_dir cfg then Hashtbl.replace w.w_seen digest ()
      else begin
        incr outstanding;
        (* Re-serving is the operator's retry: a poison verdict or
           failure record from a previous invocation is cleared when
           its digest is enqueued again — a stale one would count the
           digest as settled while its retry still runs. *)
        Task_queue.clear_poison queue ~digest;
        Task_queue.clear_failed queue ~digest;
        Task_queue.enqueue queue ~digest ~spec:(Ebrc_exp.Codec.encode cfg)
      end)
    w.w_tasks;
  !outstanding

let plan ~store_dir ~queue m = plan_watch (watch ~store_dir ~queue m)

(* ---------------------------- worker fleet ------------------------ *)

let stream_path queue index =
  Filename.concat (Task_queue.streams_dir queue)
    (Printf.sprintf "worker-%d.jsonl" index)

let worker_id index = Printf.sprintf "serve-w%d" index

let spawn_worker cfg ~queue ~index =
  let stream = stream_path queue index in
  (* Fresh stream per spawn: a stale finished stream would read as a
     live worker's (and fake its heartbeat). *)
  (try Sys.remove stream with Sys_error _ -> ());
  let chaos_args =
    (* Forward chaos to spawned workers with per-worker derived seeds
       so the fleet doesn't inject faults in lockstep. An inherited
       EBRC_CHAOS env var is overridden by this flag in the child. *)
    match Chaos.seed () with
    | None -> []
    | Some s -> [ "--chaos"; string_of_int (s + (1009 * (index + 1))) ]
  in
  let argv =
    Array.of_list
      ([
         Sys.executable_name;
         "worker";
         cfg.queue_dir;
         "--store"; cfg.store_dir;
         "--id"; worker_id index;
         "--ttl"; string_of_float cfg.ttl;
         "--retries"; string_of_int cfg.retries;
         "--stream"; stream;
       ]
      @ chaos_args)
  in
  (* The worker's stdout is a pipe whose EOF tells the supervisor the
     worker is exiting. Both ends are close-on-exec and the write end
     is closed here once the child holds it: a later worker inheriting
     it would keep the pipe open past this worker's exit. *)
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  match
    Unix.create_process Sys.executable_name argv Unix.stdin out_w Unix.stderr
  with
  | pid ->
      Unix.close out_w;
      (pid, out_r)
  | exception e ->
      Unix.close out_r;
      Unix.close out_w;
      raise e

(* Incremental fleet view: each worker stream is folded once. A tick
   reads only the bytes appended since the last one (a torn last line
   waits in the tail for its remainder). A stream replaced under its
   name — finalize's canonical rewrite is a rename — shows as a new
   inode and is refolded from byte 0; a respawned slot's fresh file
   could reuse the old inode, so [spawn] forgets that follower. *)
type follower = {
  mutable ino : int;
  mutable offset : int;
  mutable tail : Status.tail;
}

let follow (followers : (string, follower) Hashtbl.t) path =
  let f =
    match Hashtbl.find_opt followers path with
    | Some f -> f
    | None ->
        let f = { ino = -1; offset = 0; tail = Status.tail () } in
        Hashtbl.replace followers path f;
        f
  in
  match Unix.stat path with
  | exception Unix.Unix_error _ -> None
  | st -> (
      if st.Unix.st_ino <> f.ino || st.Unix.st_size < f.offset then begin
        f.ino <- st.Unix.st_ino;
        f.offset <- 0;
        f.tail <- Status.tail ()
      end;
      let size = st.Unix.st_size in
      match
        if size > f.offset then begin
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              seek_in ic f.offset;
              Status.feed f.tail (really_input_string ic (size - f.offset)));
          f.offset <- size
        end
      with
      | () -> Some (Status.tail_view f.tail)
      | exception (Sys_error _ | End_of_file) ->
          (* Replaced or truncated mid-read: start over next tick. *)
          Hashtbl.remove followers path;
          None)

(* Merge whatever the workers have streamed so far into one fleet
   view; tolerant of torn tails and missing files by construction. *)
let fleet_view followers queue =
  let dir = Task_queue.streams_dir queue in
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | entries ->
      let views =
        Array.to_list entries
        |> List.filter (fun e -> Filename.check_suffix e ".jsonl")
        |> List.sort String.compare
        |> List.filter_map (fun e -> follow followers (Filename.concat dir e))
      in
      if views = [] then None else Some (Status.merge views)

let progress_line p view =
  let fleet =
    match view with
    | None -> ""
    | Some (v : Status.view) ->
        let rate =
          if Float.is_finite v.Status.event_rate then
            Printf.sprintf "  %.0f events/s" v.Status.event_rate
          else ""
        in
        Printf.sprintf "  (%d task records%s)" (List.length v.Status.tasks)
          rate
  in
  let poisoned =
    if p.poisoned > 0 then Printf.sprintf ", %d poisoned" p.poisoned else ""
  in
  Printf.sprintf "serve: %d/%d published, %d queued, %d leased, %d failed%s%s"
    p.published p.total p.queued p.leased p.failed poisoned fleet

(* ----------------------------- supervisor ------------------------- *)

(* One supervised worker slot. The worker id (hence lease attribution)
   is stable across restarts of the same slot. *)
type slot = {
  index : int;
  stream : string;
  mutable pid : int option;
  mutable out : Unix.file_descr option;
      (** read end of the worker's stdout; [None] once at EOF *)
  mutable beat : float;  (** wall time of the last observed heartbeat *)
  mutable stream_size : int;
  mutable deaths : int;  (** consecutive deaths without fleet progress *)
  mutable spawn_after : float;  (** backoff gate for the next respawn *)
  mutable retired : bool;
}

(* Block until a live worker's stdout has bytes or EOF, or [timeout]
   passes. Bytes are forwarded unchanged to our stdout; EOF (the
   worker is exiting) closes the pipe, leaving the slot to be reaped
   by the next tick. *)
let wait_fleet slots timeout =
  let live = Array.to_list slots |> List.filter_map (fun s -> s.out) in
  if live = [] then Unix.sleepf timeout
  else
    match Unix.select live [] [] (Float.max 0.0 timeout) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        let buf = Bytes.create 4096 in
        Array.iter
          (fun slot ->
            match slot.out with
            | Some fd when List.mem fd ready -> (
                match Unix.read fd buf 0 (Bytes.length buf) with
                | 0 | (exception Unix.Unix_error _) ->
                    Unix.close fd;
                    slot.out <- None
                | n ->
                    output stdout buf 0 n;
                    flush stdout)
            | _ -> ())
          slots

let supervise cfg ~queue ~say w =
  let strikes : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let tax =
    { t_restarts = 0; t_stall_kills = 0; t_chaos_kills = 0; t_strikes = 0 }
  in
  (* The chaos monkey draws from its own stream (index 1; the I/O shim
     owns index 0) so kill schedules replay independently of I/O
     faulting. It kills on a drawn interval (0.5–2 s) rather than a
     per-tick coin flip so even a short sweep is guaranteed to lose
     workers. *)
  let monkey =
    Option.map
      (fun s ->
        let g = Prng.stream ~root:s 1 in
        (g, ref (Unix.gettimeofday () +. 0.5 +. (1.5 *. Prng.float_unit g))))
      cfg.chaos_kill
  in
  let slots =
    Array.init cfg.workers (fun i ->
        {
          index = i;
          stream = stream_path queue i;
          pid = None;
          out = None;
          beat = 0.0;
          stream_size = -1;
          deaths = 0;
          spawn_after = 0.0;
          retired = false;
        })
  in
  let followers = Hashtbl.create 8 in
  let spawn slot =
    Hashtbl.remove followers slot.stream;
    let pid, out = spawn_worker cfg ~queue ~index:slot.index in
    slot.pid <- Some pid;
    slot.out <- Some out;
    slot.beat <- Unix.gettimeofday ();
    slot.stream_size <- -1
  in
  (* Digest → config for the published-already check below. *)
  let cfg_of : (string, Ebrc_exp.Scenario.config) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter (fun (d, c) -> Hashtbl.replace cfg_of d c) w.w_tasks;
  (* Worker death with the slot's leases still on disk means the task
     under each lease may have killed the process: strike it, free the
     lease for the survivors, and poison it once it has demonstrably
     taken [max_strikes] workers down. Digests whose task file is gone
     or whose result is already published are merely reclaimed — a
     worker dying between publish and complete must not poison a
     perfectly good task (and poisoning it would double-count the
     digest in the completion arithmetic). *)
  let strike_leases slot =
    List.iter
      (fun digest ->
        let still_pending =
          Task_queue.read_spec queue ~digest <> None
          && not
               (match Hashtbl.find_opt cfg_of digest with
               | Some c -> Rc.published ~dir:cfg.store_dir c
               | None -> false)
        in
        if still_pending then begin
          let n =
            1
            + (match Hashtbl.find_opt strikes digest with
              | Some n -> n
              | None -> 0)
          in
          Hashtbl.replace strikes digest n;
          tax.t_strikes <- tax.t_strikes + 1;
          if n >= cfg.max_strikes then begin
            Task_queue.poison queue ~digest
              ~message:
                (Printf.sprintf
                   "%d worker death(s) while leased (crash-loop circuit \
                    breaker)"
                   n);
            Printf.eprintf
              "ebrc serve: task %s poisoned after %d worker death(s)\n%!"
              digest n
          end
        end)
      (Task_queue.reclaim_worker queue ~worker:(worker_id slot.index))
  in
  let handle_death slot ~now ~clean ~outstanding =
    slot.pid <- None;
    strike_leases slot;
    if clean && not outstanding then slot.retired <- true
    else begin
      slot.deaths <- slot.deaths + 1;
      if slot.deaths > max_barren_restarts then begin
        slot.retired <- true;
        Printf.eprintf
          "ebrc serve: worker %d retired after %d deaths without fleet \
           progress\n\
           %!"
          slot.index slot.deaths
      end
      else slot.spawn_after <- now +. backoff (slot.deaths - 1)
    end
  in
  let heartbeat slot now =
    (* Stream growth is the heartbeat: workers wall-tick while polling
       and stream sim-time deltas while running, so a silent stream is
       a hung process, not a busy one. *)
    match Unix.stat slot.stream with
    | st ->
        if st.Unix.st_size <> slot.stream_size then begin
          slot.stream_size <- st.Unix.st_size;
          slot.beat <- now
        end
    | exception Unix.Unix_error _ -> ()
  in
  let settled p = p.published + p.failed + p.poisoned >= p.total in
  Array.iter spawn slots;
  say (Printf.sprintf "serve: spawned %d worker(s)" cfg.workers);
  let last_published = ref (-1) in
  (* One tick per worker exit (pipe EOF) or [cfg.poll] seconds,
     whichever comes first. *)
  let rec tick last_line =
    let now = Unix.gettimeofday () in
    let p = poll w in
    (* The incremental count trusts records once seen; a sweep is only
       declared settled after a full re-verification of the store, so
       a record lost after it was counted still fails the sweep. *)
    let p = if settled p then verify w else p in
    if p.published > !last_published then begin
      if !last_published >= 0 then
        Array.iter (fun s -> s.deaths <- 0) slots;
      last_published := p.published
    end;
    (* Under --quiet the line is never printed: skip reading the
       worker streams for it. *)
    let line =
      progress_line p (if cfg.quiet then None else fleet_view followers queue)
    in
    if line <> last_line then say line;
    if settled p then p
    else begin
      let outstanding = p.queued > 0 || p.leased > 0 in
      Array.iter
        (fun slot ->
          match (slot.pid, slot.out) with
          | Some pid, None ->
              (* Stdout at EOF: the worker is exiting; reap it now. *)
              let clean =
                match Unix.waitpid [] pid with
                | _, status -> status = Unix.WEXITED 0
                | exception Unix.Unix_error _ -> false
              in
              handle_death slot ~now ~clean ~outstanding
          | Some pid, Some _ ->
              heartbeat slot now;
              if cfg.watchdog > 0.0 && now -. slot.beat > cfg.watchdog
              then begin
                Printf.eprintf
                  "ebrc serve: worker %d stalled (no heartbeat for %.0f \
                   s); killing\n\
                   %!"
                  slot.index cfg.watchdog;
                (try Unix.kill pid Sys.sigkill
                 with Unix.Unix_error _ -> ());
                tax.t_stall_kills <- tax.t_stall_kills + 1
              end
          | None, _ ->
              if (not slot.retired) && outstanding && now >= slot.spawn_after
              then begin
                tax.t_restarts <- tax.t_restarts + 1;
                spawn slot
              end)
        slots;
      (match monkey with
      | Some (g, next_kill) when now >= !next_kill -> (
          next_kill := now +. 0.5 +. (1.5 *. Prng.float_unit g);
          let live =
            Array.to_list slots |> List.filter (fun s -> s.pid <> None)
          in
          match live with
          | [] -> ()
          | _ -> (
              match
                (List.nth live (Prng.int g (List.length live))).pid
              with
              | Some pid ->
                  (try Unix.kill pid Sys.sigkill
                   with Unix.Unix_error _ -> ());
                  tax.t_chaos_kills <- tax.t_chaos_kills + 1
              | None -> ()))
      | _ -> ());
      let all_retired =
        Array.for_all (fun s -> s.retired && s.pid = None) slots
      in
      if all_retired then begin
        Printf.eprintf
          "ebrc serve: every worker slot retired with work remaining\n%!";
        p
      end
      else begin
        wait_fleet slots cfg.poll;
        tick line
      end
    end
  in
  let p = tick "" in
  (* Collect the fleet. Post-completion the queue has no task files,
     so live workers exit on their own; give them a grace period, then
     SIGKILL stragglers (a worker hung inside a poisoned task's
     simulation would otherwise wedge serve itself). *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec collect () =
    let left = deadline -. Unix.gettimeofday () in
    if left > 0.0 && Array.exists (fun s -> s.out <> None) slots then begin
      wait_fleet slots left;
      collect ()
    end
  in
  collect ();
  Array.iter
    (fun slot ->
      match slot.pid with
      | None -> ()
      | Some pid ->
          (match slot.out with
          | Some fd ->
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              Unix.close fd;
              slot.out <- None
          | None -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
          slot.pid <- None)
    slots;
  (p, tax)

(* ------------------------------- run ------------------------------ *)

let run cfg =
  match Manifest.load ~path:cfg.manifest_path with
  | Error msg ->
      Printf.eprintf "ebrc serve: %s: %s\n%!" cfg.manifest_path msg;
      2
  | Ok m ->
      let queue = Task_queue.create ~dir:cfg.queue_dir () in
      let w = watch ~store_dir:cfg.store_dir ~queue m in
      let outstanding = plan_watch ~gc_max_age:(2.0 *. cfg.ttl) w in
      let say fmt =
        Printf.ksprintf
          (fun s -> if not cfg.quiet then print_endline s)
          fmt
      in
      let p0 = poll w in
      say "serve: %d task(s), %d already published, %d outstanding"
        p0.total p0.published outstanding;
      let finish ?tax p =
        (match tax with
        | Some t ->
            say
              "serve: exit taxonomy — %d clean completion(s), %d \
               restart(s), %d stall kill(s), %d chaos kill(s), %d lease \
               strike(s), %d poisoned"
              p.published t.t_restarts t.t_stall_kills t.t_chaos_kills
              t.t_strikes p.poisoned
        | None -> ());
        if p.published = p.total then begin
          say "serve: complete (%d/%d published)" p.published p.total;
          0
        end
        else begin
          List.iter
            (fun (digest, msg) ->
              Printf.eprintf "ebrc serve: task %s failed: %s\n%!" digest msg)
            (Task_queue.failed queue);
          List.iter
            (fun (digest, msg) ->
              Printf.eprintf "ebrc serve: task %s poisoned: %s\n%!" digest
                msg)
            (Task_queue.poisoned queue);
          Printf.eprintf
            "ebrc serve: incomplete (%d/%d published, %d failed, %d \
             poisoned)\n\
             %!"
            p.published p.total p.failed p.poisoned;
          1
        end
      in
      if outstanding = 0 then
        (* Warm resume: everything already in the store. *)
        finish p0
      else if cfg.workers <= 0 then begin
        (* Prime-only mode: external workers will drain the queue. *)
        say "serve: queue primed at %s (no workers spawned)" cfg.queue_dir;
        if p0.failed > 0 || p0.poisoned > 0 then finish p0 else 0
      end
      else begin
        let p, tax =
          supervise cfg ~queue
            ~say:(fun s -> if not cfg.quiet then print_endline s)
            w
        in
        finish ~tax p
      end
