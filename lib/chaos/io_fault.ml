(* Seed-driven I/O fault injection; see the .mli for the fault classes
   and the zero-overhead-when-off contract. *)

module Tm = Ebrc_telemetry.Telemetry
module Prng = Ebrc_rng.Prng

(* One count per injected fault: [stats] reads these, and so do the
   [chaos.*] telemetry names. *)
let c_eio = Tm.Probe.count ~help:"chaos: injected EIO faults" "chaos.eio"

let c_enospc =
  Tm.Probe.count ~help:"chaos: injected ENOSPC faults" "chaos.enospc"

let c_torn =
  Tm.Probe.count ~help:"chaos: injected torn writes" "chaos.torn_writes"

let c_fsync_lost =
  Tm.Probe.count ~help:"chaos: fsync barriers silently lost"
    "chaos.fsync_lost"

let c_skews =
  Tm.Probe.count ~help:"chaos: skewed clock readings" "chaos.clock_skews"

type stats = {
  eio : int;
  enospc : int;
  torn_writes : int;
  fsync_lost : int;
  clock_skews : int;
}

(* Per-fault-class probabilities, per guarded operation. Low enough
   that a bounded retry loop converges almost surely, high enough that
   a short soak exercises every class. *)
let p_open_eio = 0.03
let p_open_enospc = 0.03
let p_write_eio = 0.03
let p_write_torn = 0.06
let p_rename_eio = 0.04
let p_fsync_lost = 0.25
let p_skew = 0.08
let skew_magnitude = 30.0

let lock = Mutex.create ()

(* Under [lock] (except the armed/disarmed check, which is a single
   ref load on the hot path). *)
let rng : Prng.t option ref = ref None
let seed_ref : int option ref = ref None

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let set_seed s =
  locked (fun () ->
      seed_ref := s;
      rng := Option.map (fun root -> Prng.stream ~root 0) s;
      List.iter
        (fun c -> Atomic.set c 0)
        [ c_eio; c_enospc; c_torn; c_fsync_lost; c_skews ])

let seed () = locked (fun () -> !seed_ref)
let enabled () = !rng <> None

let stats () =
  {
    eio = Atomic.get c_eio;
    enospc = Atomic.get c_enospc;
    torn_writes = Atomic.get c_torn;
    fsync_lost = Atomic.get c_fsync_lost;
    clock_skews = Atomic.get c_skews;
  }

let injected what path =
  Sys_error (Printf.sprintf "%s: chaos injected %s" path what)

let guard_open path =
  match !rng with
  | None -> ()
  | Some g ->
      locked (fun () ->
          let u = Prng.float_unit g in
          if u < p_open_eio then begin
            Atomic.incr c_eio;
            raise (injected "EIO on open" path)
          end
          else if u < p_open_eio +. p_open_enospc then begin
            Atomic.incr c_enospc;
            raise (injected "ENOSPC on open" path)
          end)

let guard_rename path =
  match !rng with
  | None -> ()
  | Some g ->
      locked (fun () ->
          if Prng.float_unit g < p_rename_eio then begin
            Atomic.incr c_eio;
            raise (injected "EIO on rename" path)
          end)

let write oc s =
  match !rng with
  | None -> output_string oc s
  | Some g -> (
      let fault =
        locked (fun () ->
            let u = Prng.float_unit g in
            if u < p_write_eio then begin
              Atomic.incr c_eio;
              `Eio
            end
            else if u < p_write_eio +. p_write_torn && String.length s > 1
            then begin
              Atomic.incr c_torn;
              `Torn (1 + Prng.int g (String.length s - 1))
            end
            else `None)
      in
      match fault with
      | `None -> output_string oc s
      | `Eio -> raise (injected "EIO on write" "<channel>")
      | `Torn n ->
          (* The prefix really lands (flushed) before the failure, so a
             half-written tmp/record is observable — the case the
             scrubber and the torn-lease grace exist for. *)
          output_string oc (String.sub s 0 n);
          flush oc;
          raise (injected "torn write" "<channel>"))

let maim s =
  match !rng with
  | None -> s
  | Some g ->
      locked (fun () ->
          if Prng.float_unit g < p_write_torn && String.length s > 1 then begin
            Atomic.incr c_torn;
            String.sub s 0 (1 + Prng.int g (String.length s - 1))
          end
          else s)

let fsync oc =
  match !rng with
  | None -> ()
  | Some g ->
      flush oc;
      let lost =
        locked (fun () ->
            if Prng.float_unit g < p_fsync_lost then begin
              Atomic.incr c_fsync_lost;
              true
            end
            else false)
      in
      if not lost then
        try Unix.fsync (Unix.descr_of_out_channel oc)
        with Unix.Unix_error _ -> ()

let publish ~tmp path content =
  guard_open tmp;
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      write oc content;
      fsync oc);
  guard_rename path;
  Sys.rename tmp path

let rec mkdir_p d =
  if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> Some s
  | exception (Sys_error _ | End_of_file) -> None

let now () =
  let t = Unix.gettimeofday () in
  match !rng with
  | None -> t
  | Some g ->
      locked (fun () ->
          if Prng.float_unit g < p_skew then begin
            Atomic.incr c_skews;
            t +. (((Prng.float_unit g *. 2.0) -. 1.0) *. skew_magnitude)
          end
          else t)
