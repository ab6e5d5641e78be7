(* PC-sampling profile of the droptail kernel, with no profiler
   installed.

   Runs the paper's lab dumbbell (4 TFRC + 4 TCP flows, 15 Mb/s,
   DropTail-100, 25 simulated seconds; the perfbench droptail task)
   over a fixed seed list for about [budget_s] of wall time, while a
   CLOCK_MONOTONIC timer interrupts this thread every [interval_us]
   with SIGPROF and the C stub records the interrupted program counter.
   Afterwards the samples are symbolised against `nm -n` of this
   executable, after subtracting the load base of a position-
   independent executable (read from /proc/self/maps); samples outside
   the executable are charged to the mapping they fall in. Prints the
   top functions and the share of each module (OCaml compilation unit,
   the OCaml runtime's C functions, other C code, shared libraries),
   after the minor-heap allocation of the sampled runs: words per run
   and per fired event (the event counts come from one telemetry-on
   rerun of each seed, after sampling).

   Linux on x86-64 or AArch64; needs `nm` on the PATH. Run with
   `make profile`. *)

external prof_start : int -> unit = "ebrc_prof_start"
external prof_stop : unit -> int array * int = "ebrc_prof_stop"

let interval_us = 100
let budget_s = 5.0
let top_n = 25

let config seed =
  {
    Ebrc.Scenario.default_config with
    seed;
    n_tfrc = 4;
    n_tcp = 4;
    bottleneck_bps = 15e6;
    queue = Ebrc.Scenario.Drop_tail { capacity = 100 };
    duration = 25.0;
    warmup = 5.0;
  }

(* ----------------------------- memory map ---------------------------- *)

type mapping = { lo : int; hi : int; offset : int; path : string }

(* "lo-hi perms offset dev inode [path]"; [None] for a line that does
   not parse, and for the vsyscall page, whose addresses exceed an
   OCaml int. *)
let parse_mapping line =
  let hex s = int_of_string_opt ("0x" ^ s) in
  match String.split_on_char ' ' line |> List.filter (( <> ) "") with
  | range :: _perms :: offset :: _dev :: _inode :: rest -> (
      match String.split_on_char '-' range with
      | [ lo; hi ] -> (
          match (hex lo, hex hi, hex offset) with
          | Some lo, Some hi, Some offset ->
              Some { lo; hi; offset; path = String.concat " " rest }
          | _ -> None)
      | _ -> None)
  | _ -> None

(* ELF e_type (bytes 16-17, little-endian): 3 = ET_DYN, a position-
   independent executable whose nm addresses are relative to its load
   base; 2 = ET_EXEC, linked at its nm addresses. *)
let is_pie exe =
  let hdr = In_channel.with_open_bin exe (fun ic -> really_input_string ic 18) in
  Char.code hdr.[16] = 3

(* ------------------------------ symbols ------------------------------ *)

(* Text symbols of [exe], ascending by address; weak ones included
   (the runtime defines [caml_modify] weak). *)
let text_symbols exe =
  let ic = Unix.open_process_args_in "nm" [| "nm"; "-n"; "--defined-only"; exe |] in
  let rec go acc =
    match input_line ic with
    | line -> (
        match String.split_on_char ' ' line with
        | [ addr; ("T" | "t" | "W" | "w"); name ] ->
            go ((int_of_string ("0x" ^ addr), name) :: acc)
        | _ -> go acc)
    | exception End_of_file -> List.rev acc
  in
  let syms = go [] in
  (match Unix.close_process_in ic with
   | Unix.WEXITED 0 -> ()
   | _ -> failwith "profile: nm failed");
  Array.of_list syms

(* Index of the last symbol at or below [addr], -1 if none. *)
let lookup syms addr =
  let rec go lo hi =
    (* invariant: syms.(lo) <= addr < syms.(hi) (virtual bounds) *)
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if fst syms.(mid) <= addr then go mid hi else go lo mid
  in
  if Array.length syms = 0 || addr < fst syms.(0) then -1
  else go 0 (Array.length syms)

(* "camlEbrc_sim__Timing_wheel.ensure_1234" -> module "Timing_wheel",
   function "Timing_wheel.ensure"; an anonymous function keeps its
   stamp ("Scenario.fun_5678"), the only thing telling two apart.
   OCaml runtime C functions ("caml_*") and other C code keep their
   names. *)
let strip_stamp s =
  match String.rindex_opt s '_' with
  | Some i
    when i < String.length s - 1
         && String.for_all
              (fun c -> c >= '0' && c <= '9')
              (String.sub s (i + 1) (String.length s - i - 1)) ->
      String.sub s 0 i
  | _ -> s

(* The text after the last "__" of a dune-mangled unit name
   ("Ebrc_sim__Timing_wheel" -> "Timing_wheel"). *)
let short_unit u =
  let rec go i =
    if i < 0 then u
    else if u.[i] = '_' && u.[i + 1] = '_' then
      String.sub u (i + 2) (String.length u - i - 2)
    else go (i - 1)
  in
  go (String.length u - 2)

let classify name =
  let n = String.length name in
  if n > 4 && String.sub name 0 4 = "caml" && name.[4] <> '_' then
    let unit_, fn =
      match String.index_opt name '.' with
      | Some i -> (String.sub name 4 (i - 4), String.sub name (i + 1) (n - i - 1))
      | None -> (String.sub name 4 (n - 4), "")
    in
    let short = short_unit unit_ in
    let fn = if String.starts_with ~prefix:"fun_" fn then fn else strip_stamp fn in
    (short, short ^ "." ^ fn)
  else if n > 5 && String.sub name 0 5 = "caml_" then ("[ocaml runtime]", name)
  else ("[C]", name)

(* ----------------------------- allocation ---------------------------- *)

(* Events fired by the run of each seed in [seeds], from the engine's
   [sim.events_fired] counter with telemetry on. *)
let events_per_seed seeds =
  let module Tm = Ebrc.Telemetry in
  Tm.set_enabled true;
  let counts =
    List.map
      (fun seed ->
        Tm.reset ();
        ignore (Ebrc.Scenario.run (config seed));
        match
          List.find_opt
            (fun (s : Tm.snapshot) -> s.Tm.snap_name = "sim.events_fired")
            (Tm.snapshot ())
        with
        | Some s -> s.Tm.count
        | None -> 0)
      seeds
  in
  Tm.set_enabled false;
  Tm.reset ();
  counts

(* ------------------------------- report ------------------------------ *)

let tally tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let print_table title total tbl limit =
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (ka, a) (kb, b) -> if a <> b then compare b a else compare ka kb)
  in
  Printf.printf "\n%s\n" title;
  List.iteri
    (fun i (k, v) ->
      if i < limit then
        Printf.printf "  %6.2f%%  %7d  %s\n"
          (100.0 *. float_of_int v /. float_of_int total)
          v k)
    rows

let () =
  let exe = Sys.executable_name in
  let t0 = Unix.gettimeofday () in
  let runs = ref 0 in
  let words0 = Gc.minor_words () in
  prof_start interval_us;
  while Unix.gettimeofday () -. t0 < budget_s do
    ignore (Ebrc.Scenario.run (config (1 + (!runs mod 12))));
    incr runs
  done;
  let samples, lost = prof_stop () in
  let wall = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. words0 in
  (* Run [i] used seed [1 + i mod 12]: seed k ran [runs / 12] times,
     once more if [k <= runs mod 12]. *)
  let events =
    List.fold_left ( + ) 0
      (List.mapi
         (fun i n -> n * ((!runs / 12) + if i < !runs mod 12 then 1 else 0))
         (events_per_seed (List.init 12 (fun i -> 1 + i))))
  in
  let maps =
    In_channel.with_open_text "/proc/self/maps" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map parse_mapping
  in
  let real = Unix.realpath exe in
  let own = List.filter (fun m -> m.path = real) maps in
  let base =
    if not (is_pie exe) then 0
    else
      match List.find_opt (fun m -> m.offset = 0) own with
      | Some m -> m.lo
      | None -> failwith "profile: executable not found in /proc/self/maps"
  in
  let syms = text_symbols exe in
  let by_fn = Hashtbl.create 256 and by_mod = Hashtbl.create 64 in
  Array.iter
    (fun pc ->
      if List.exists (fun m -> pc >= m.lo && pc < m.hi) own then begin
        let i = lookup syms (pc - base) in
        let m, f = if i < 0 then ("[C]", "?") else classify (snd syms.(i)) in
        tally by_mod m;
        tally by_fn f
      end
      else
        let where =
          match List.find_opt (fun m -> pc >= m.lo && pc < m.hi) maps with
          | Some { path = ""; _ } | None -> "[anonymous]"
          | Some m -> "[" ^ Filename.basename m.path ^ "]"
        in
        tally by_mod where;
        tally by_fn where)
    samples;
  let total = max 1 (Array.length samples) in
  Printf.printf
    "droptail kernel: %d runs (4 TFRC + 4 TCP, 15 Mb/s, DropTail-100, 25 s) \
     in %.2f s, %.1f ms/run\n"
    !runs wall
    (1000.0 *. wall /. float_of_int (max 1 !runs));
  Printf.printf "%d samples at %d us (%d lost)\n" (Array.length samples)
    interval_us lost;
  Printf.printf
    "allocation: %.0f minor words/run, %.2f words/event (%.0f events/run)\n"
    (words /. float_of_int (max 1 !runs))
    (words /. float_of_int (max 1 events))
    (float_of_int events /. float_of_int (max 1 !runs));
  print_table (Printf.sprintf "top %d functions" top_n) total by_fn top_n;
  print_table "modules" total by_mod max_int
