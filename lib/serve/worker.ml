(* Lease/execute/publish loop; see the .mli for the contract. *)

module Rc = Ebrc_exp.Result_cache
module Scenario = Ebrc_exp.Scenario
module Tm = Ebrc_telemetry.Telemetry
module Stream = Ebrc_telemetry.Stream
module Json = Ebrc_obs.Json
module Flight = Ebrc_telemetry.Flight
module Pool = Ebrc_parallel.Pool
module Chaos = Ebrc_chaos.Io_fault

let c_ran =
  Tm.Probe.count ~help:"sweep tasks simulated and published"
    "worker.tasks_ran"

let c_cached =
  Tm.Probe.count ~help:"sweep tasks satisfied by the store on lease"
    "worker.tasks_cached"

let c_failed =
  Tm.Probe.count ~help:"sweep tasks marked terminally failed"
    "worker.tasks_failed"

let c_publish_retries =
  Tm.Probe.count ~help:"publications retried after a failed read-back"
    "worker.publish_retries"

let c_publish_failed =
  Tm.Probe.count ~help:"publications that never verified on read-back"
    "worker.publish_failed"

type config = {
  queue_dir : string;
  store_dir : string;
  worker_id : string;
  ttl : float;
  retries : int;
  poll : float;
  max_tasks : int option;
  exit_when_drained : bool;
}

let default ~queue_dir =
  {
    queue_dir;
    store_dir = Filename.concat queue_dir "store";
    worker_id = Printf.sprintf "w%d" (Unix.getpid ());
    ttl = 300.0;
    retries = 1;
    poll = 0.2;
    max_tasks = None;
    exit_when_drained = true;
  }

type outcome = { ran : int; cached : int; failed : int }

(* Rescan period while every pending task is leased by a live peer:
   an eighth of the filtered service time, so a peer's completion (or
   the queue draining) is noticed within ~1/8 of a task, floored at
   2 ms so an idle worker cannot spin the queue directory, and capped
   at [cap] (--poll), which also applies before the first sample. *)
let rescan_period ~cap ~service =
  match service with
  | None -> cap
  | Some s -> Float.min cap (Float.max 0.002 (s /. 8.0))

let run cfg =
  (* 2 × lease ttl: a startup gc sweep must never reclaim a live
     peer's in-flight publication, and no publication outlives its
     task's lease by more than the lease itself. *)
  ignore (Rc.gc_tmp ~max_age:(2.0 *. cfg.ttl) cfg.store_dir);
  let q = Task_queue.create ~dir:cfg.queue_dir () in
  (* domains:1 spawns nothing; the pool only supplies the per-task
     exception barrier + retry policy of [run_isolated]. *)
  let pool = Pool.create ~domains:1 () in
  (* The outcome is this call's growth of the worker.* counts. *)
  let since c =
    let c0 = Atomic.get c in
    fun () -> Atomic.get c - c0
  in
  let ran = since c_ran and cached = since c_cached
  and failed = since c_failed in
  let publish_failures : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let executed () = ran () + failed () in
  let under_cap () =
    match cfg.max_tasks with Some n -> executed () < n | None -> true
  in
  let mark_failed digest message =
    Task_queue.fail q ~worker:cfg.worker_id ~digest ~message;
    Stream.task ~key:digest ~phase:"failed" ();
    Atomic.incr c_failed
  in
  (* Publish with read-back verification: [store_to] degrades store
     failures to a warning by design, so under injected faults (or a
     genuinely sick disk) a publication can silently not land.
     Verifying via [published] (a full load + key check) and retrying
     bounds that: the record either verifies or the task is handed
     back / failed — never "completed" with an empty store slot. *)
  let publish scenario_cfg r =
    let rec go attempt =
      Rc.store_to ~dir:cfg.store_dir scenario_cfg r;
      if Rc.published ~dir:cfg.store_dir scenario_cfg then true
      else if attempt < 8 then begin
        Atomic.incr c_publish_retries;
        go (attempt + 1)
      end
      else false
    in
    go 0
  in
  let execute digest scenario_cfg =
    Stream.task ~key:digest ~phase:"leased" ();
    let t0 = Unix.gettimeofday () in
    match
      Pool.run_isolated ~retries:cfg.retries pool (fun () ->
          Scenario.run scenario_cfg)
    with
    | Ok r ->
        let t1 = Unix.gettimeofday () in
        if publish scenario_cfg r then begin
          let t2 = Unix.gettimeofday () in
          Task_queue.complete q ~digest;
          Stream.task ~key:digest ~phase:"done"
            ~attrs:
              [
                ("compute_s", Json.Num (t1 -. t0));
                ("publish_s", Json.Num (t2 -. t1));
              ]
            ();
          Atomic.incr c_ran
        end
        else begin
          Atomic.incr c_publish_failed;
          let strikes =
            1
            + (match Hashtbl.find_opt publish_failures digest with
              | Some n -> n
              | None -> 0)
          in
          Hashtbl.replace publish_failures digest strikes;
          if strikes >= 2 then
            mark_failed digest "result publication failed read-back verification"
          else begin
            (* Hand the task back rather than completing with nothing
               in the store: another worker (or a later rescan here)
               re-runs it against a hopefully healthier disk. *)
            Task_queue.release q ~digest;
            Stream.task ~key:digest ~phase:"publish-failed" ()
          end
        end
    | Error e ->
        Flight.on_exn ~reason:"worker.task"
          ~attrs:
            ([
               ("digest", digest);
               ("attempts", string_of_int e.Pool.t_attempts);
             ]
            @
            match Chaos.seed () with
            | Some s -> [ ("chaos_seed", string_of_int s) ]
            | None -> [])
          e.Pool.t_exn;
        mark_failed digest
          (Printf.sprintf "%s (after %d attempt(s))"
             (Printexc.to_string e.Pool.t_exn)
             e.Pool.t_attempts)
  in
  let run_claimed digest =
    match Task_queue.read_spec q ~digest with
    | None ->
        (* Task file vanished between claim and read: someone else
           completed it; drop our stray lease. *)
        Task_queue.release q ~digest
    | Some spec -> (
        match Ebrc_exp.Codec.decode spec with
        | Error msg -> mark_failed digest ("unparsable task spec: " ^ msg)
        | Ok scenario_cfg ->
            if Rc.digest_of_config scenario_cfg <> digest then
              mark_failed digest "task spec does not match its digest"
            else if Rc.published ~dir:cfg.store_dir scenario_cfg then begin
              (* Resume path: already in the store — complete without
                 simulating. *)
              Task_queue.complete q ~digest;
              Stream.task ~key:digest ~phase:"done"
                ~attrs:[ ("cached", Json.Bool true) ] ();
              Atomic.incr c_cached
            end
            else execute digest scenario_cfg)
  in
  (* EWMA (weight 1/4) of claim→complete wall time over the tasks
     this worker simulated; store-satisfied completions are not
     service and are left out. *)
  let service = ref None in
  let observe dt =
    service :=
      Some (match !service with None -> dt | Some s -> s +. ((dt -. s) /. 4.0))
  in
  let stop = ref false in
  while not !stop do
    Stream.wall_tick ();
    match Task_queue.pending q with
    | [] ->
        if cfg.exit_when_drained then stop := true else Unix.sleepf cfg.poll
    | pending ->
        let progressed = ref false in
        List.iter
          (fun digest ->
            if under_cap () && not !stop then
              match
                Task_queue.claim q ~worker:cfg.worker_id ~ttl:cfg.ttl ~digest
              with
              | Busy | Gone -> ()
              | Claimed ->
                  progressed := true;
                  let t0 = Unix.gettimeofday () and ran0 = ran () in
                  run_claimed digest;
                  if ran () > ran0 then observe (Unix.gettimeofday () -. t0))
          pending;
        if not (under_cap ()) then stop := true
        else if not !progressed then
          (* Everything pending is leased by live peers (or their
             leases have not yet expired): wait and rescan — never
             exit while task files remain, or a peer's SIGKILL would
             strand its task. *)
          Unix.sleepf (rescan_period ~cap:cfg.poll ~service:!service)
  done;
  Pool.shutdown pool;
  { ran = ran (); cached = cached (); failed = failed () }
