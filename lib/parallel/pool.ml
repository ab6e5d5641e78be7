(* Fixed-size domain pool with dynamic work-sharing.

   Workers are spawned once and parked on a condition variable between
   jobs; a job is an index range [0, length) that workers (and the
   submitting caller) drain by fetch-and-add on an atomic cursor, one
   index at a time. Task results are written into
   caller-owned slots keyed by task index, never appended, so the
   output order is independent of the schedule — that, plus per-task
   PRNG streams (Prng.stream), is what makes parallel sweeps
   bit-identical to their sequential runs. *)

module Tm = Ebrc_telemetry.Telemetry

let c_jobs = Tm.Probe.count ~help:"parallel jobs submitted" "pool.jobs"
let c_tasks = Tm.Probe.count ~help:"tasks drained by pool jobs" "pool.tasks"
let c_chunks = Tm.Probe.count ~help:"work chunks executed" "pool.chunks"

let c_steals =
  Tm.Probe.count
    ~help:"chunks executed by a domain other than the submitter" "pool.steals"

let m_chunk_seconds =
  Tm.Histogram.make ~help:"wall-clock seconds per executed chunk"
    "pool.chunk_seconds"

let c_tasks_submitted =
  Tm.Probe.count
    ~help:"tasks posted with jobs (drained or not); ETA denominator"
    "pool.tasks_submitted"

type job = {
  run_chunk : int -> int -> unit;  (* process indices [lo, hi) *)
  length : int;
  cursor : int Atomic.t;
  submitter : int;                 (* domain id of the submitting caller *)
  mutable finished_workers : int;  (* protected by the pool lock *)
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
}

type t = {
  n_domains : int;
  mutable workers : unit Domain.t array;  (* set once, right after spawn *)
  lock : Mutex.t;
  wake : Condition.t;              (* new job posted, or shutdown *)
  idle : Condition.t;              (* all workers done with the job *)
  mutable job : job option;
  mutable epoch : int;             (* bumped once per posted job *)
  mutable closed : bool;
}

let execute job =
  let continue = ref true in
  while !continue do
    (* One index per grab: every caller's tasks are simulations or
       sweep points (milliseconds), so the atomic costs nothing beside
       them, and a longest-first batch then ends without one domain
       still working through a large chunk. *)
    let lo = Atomic.fetch_and_add job.cursor 1 in
    if lo >= job.length || Atomic.get job.failure <> None then
      continue := false
    else begin
      let telem = Tm.is_on () in
      let t0 = if telem then Tm.wall_now () else 0.0 in
      (try job.run_chunk lo (lo + 1)
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         (* Keep the first failure; later ones lose the race. *)
         ignore (Atomic.compare_and_set job.failure None (Some (e, bt))));
      Atomic.incr c_chunks;
      Atomic.incr c_tasks;
      if (Domain.self () :> int) <> job.submitter then Atomic.incr c_steals;
      if telem then Tm.Histogram.observe m_chunk_seconds (Tm.wall_now () -. t0);
      (* Live-stream progress probe: rate-limited inside, one atomic
         load when streaming is off. *)
      Ebrc_telemetry.Stream.wall_tick ()
    end
  done

let worker_loop t =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.lock;
    while (not t.closed) && t.epoch = !seen do
      Condition.wait t.wake t.lock
    done;
    if t.closed then begin
      running := false;
      Mutex.unlock t.lock
    end
    else begin
      seen := t.epoch;
      let job = Option.get t.job in
      Mutex.unlock t.lock;
      execute job;
      Mutex.lock t.lock;
      job.finished_workers <- job.finished_workers + 1;
      if job.finished_workers = t.n_domains - 1 then Condition.broadcast t.idle;
      Mutex.unlock t.lock
    end
  done

let create ?(domains = Domain.recommended_domain_count ()) () =
  let n_domains = max 1 domains in
  let t =
    {
      n_domains;
      workers = [||];
      lock = Mutex.create ();
      wake = Condition.create ();
      idle = Condition.create ();
      job = None;
      epoch = 0;
      closed = false;
    }
  in
  t.workers <-
    Array.init (n_domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

(* Run [run_chunk] over the index range [0, length). The caller drains
   indices alongside the workers, then waits for every worker to retire
   from the job before returning (so results are published and the
   pool can accept the next job). *)
let check_open t =
  Mutex.lock t.lock;
  let closed = t.closed in
  Mutex.unlock t.lock;
  if closed then invalid_arg "Pool: used after shutdown"

let run t ~length run_chunk =
  if length > 0 then begin
    Atomic.incr c_jobs;
    ignore (Atomic.fetch_and_add c_tasks_submitted length);
    if t.n_domains = 1 || length = 1 then begin
      (* Inline fast path: no handoff, exceptions propagate directly.
         It bypasses [execute], so it counts its one chunk here and
         pool.tasks totals match across domain counts. *)
      Atomic.incr c_chunks;
      ignore (Atomic.fetch_and_add c_tasks length);
      run_chunk 0 length;
      Ebrc_telemetry.Stream.wall_tick ()
    end
    else begin
      let job =
        {
          run_chunk;
          length;
          cursor = Atomic.make 0;
          submitter = (Domain.self () :> int);
          finished_workers = 0;
          failure = Atomic.make None;
        }
      in
      Mutex.lock t.lock;
      if t.closed then begin
        Mutex.unlock t.lock;
        invalid_arg "Pool: used after shutdown"
      end;
      t.job <- Some job;
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.wake;
      Mutex.unlock t.lock;
      execute job;
      Mutex.lock t.lock;
      while job.finished_workers < t.n_domains - 1 do
        Condition.wait t.idle t.lock
      done;
      t.job <- None;
      Mutex.unlock t.lock;
      match Atomic.get job.failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

(* ----------------------- crash isolation --------------------------- *)

type task_error = {
  t_index : int;
  t_attempts : int;
  t_exn : exn;
  t_backtrace : Printexc.raw_backtrace;
}

exception Task_failed of task_error

let () =
  Printexc.register_printer (function
    | Task_failed e ->
        Some
          (Printf.sprintf
             "Pool.Task_failed (task #%d, attempt %d): %s" e.t_index
             e.t_attempts (Printexc.to_string e.t_exn))
    | _ -> None)

let c_task_failures =
  Tm.Probe.count ~help:"tasks whose final attempt raised" "pool.task_failures"

let c_task_retries =
  Tm.Probe.count ~help:"task attempts retried after a failure"
    "pool.task_retries"

let try_init ?(retries = 0) t n f =
  check_open t;
  if n < 0 then invalid_arg "Pool.try_init: negative length";
  if retries < 0 then invalid_arg "Pool.try_init: negative retries";
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    (* [one] never raises, so a crashing task can neither abort its
       siblings nor poison the job: every sibling still runs and
       publishes its own Ok/Error slot. *)
    let one i =
      let rec attempt a =
        match f i with
        | v -> Ok v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            if a < retries then begin
              Atomic.incr c_task_retries;
              attempt (a + 1)
            end
            else begin
              Atomic.incr c_task_failures;
              Error
                { t_index = i; t_attempts = a + 1; t_exn = e;
                  t_backtrace = bt }
            end
      in
      attempt 0
    in
    run t ~length:n (fun lo hi ->
        for i = lo to hi - 1 do
          results.(i) <- Some (one i)
        done);
    Array.map Option.get results
  end

(* Single-task crash isolation for callers that are not sweeps (the
   serve worker leases one task at a time). *)
let run_isolated ?retries t f =
  (try_init ?retries t 1 (fun _ -> f ())).(0)

(* Lowest failing index, so the raised error is deterministic (the old
   first-failure-wins atomic depended on the chunk schedule). *)
let lowest_error results =
  let err = ref None in
  for i = Array.length results - 1 downto 0 do
    match results.(i) with Error e -> err := Some e | Ok _ -> ()
  done;
  !err

let reap results =
  match lowest_error results with
  | Some e ->
      let exn = Task_failed e in
      Ebrc_telemetry.Flight.on_exn ~reason:"pool.task_failed" exn;
      raise exn
  | None -> Array.map (function Ok v -> v | Error _ -> assert false) results

let init t n f =
  if n < 0 then invalid_arg "Pool.init: negative length";
  reap (try_init t n f)

let shutdown t =
  Mutex.lock t.lock;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.lock;
  if not was_closed then Array.iter Domain.join t.workers

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Process-wide warm pools, one per domain count. Spawning a domain
   costs on the order of a millisecond, so a sweep layer that opens a
   fresh pool per sweep pays that again and again — with quick-mode
   sweeps of a few dozen points the spawn tax exceeded the parallel
   gain (the PR1 jobs=2 regression). Shared pools are spawned on first
   use, kept parked between jobs, and joined at process exit. *)
let shared_pools : (int, t) Hashtbl.t = Hashtbl.create 4
let shared_lock = Mutex.create ()
let shared_at_exit = ref false

let shared ?(domains = Domain.recommended_domain_count ()) () =
  let n = max 1 domains in
  Mutex.lock shared_lock;
  let pool =
    match Hashtbl.find_opt shared_pools n with
    | Some p when not p.closed -> p
    | _ ->
        let p = create ~domains:n () in
        Hashtbl.replace shared_pools n p;
        if not !shared_at_exit then begin
          shared_at_exit := true;
          at_exit (fun () ->
              Mutex.lock shared_lock;
              let ps =
                Hashtbl.fold (fun _ p acc -> p :: acc) shared_pools []
              in
              Hashtbl.reset shared_pools;
              Mutex.unlock shared_lock;
              List.iter shutdown ps)
        end;
        p
  in
  Mutex.unlock shared_lock;
  pool
