(* Bench-record discovery and ordering. *)

let digits s lo hi =
  let ok = ref true in
  for i = lo to hi do
    if not (s.[i] >= '0' && s.[i] <= '9') then ok := false
  done;
  !ok

let is_date s =
  (* YYYY-MM-DD *)
  String.length s = 10
  && digits s 0 3 && s.[4] = '-' && digits s 5 6 && s.[7] = '-' && digits s 8 9

let timestamp_of_filename name =
  let pre = "BENCH_" and suf = ".json" in
  let pl = String.length pre and sl = String.length suf in
  let nl = String.length name in
  if nl <= pl + sl
     || String.sub name 0 pl <> pre
     || String.sub name (nl - sl) sl <> suf
  then None
  else begin
    let stem = String.sub name pl (nl - pl - sl) in
    let l = String.length stem in
    if is_date stem then Some (stem ^ "T000000Z")
    else if
      l = 18
      && is_date (String.sub stem 0 10)
      && stem.[10] = 'T'
      && digits stem 11 16
      && stem.[17] = 'Z'
    then Some stem
    else None
  end

type record = { file : string; ts : string option; json : Json.t }

let list_ordered ~dir =
  let names =
    match Sys.readdir dir with
    | arr ->
        Array.to_list arr
        |> List.filter (fun f ->
               String.length f > 11
               && String.sub f 0 6 = "BENCH_"
               && Filename.check_suffix f ".json")
    | exception Sys_error _ -> []
  in
  (* Timestamped records first in timestamp order; the normalised
     forms share one fixed-width shape, so string compare is time
     compare. Unstamped records sort last, by name, and each earns a
     warning. *)
  let keyed =
    List.map (fun f -> (timestamp_of_filename f, f)) names
    |> List.sort (fun (ta, fa) (tb, fb) ->
           match (ta, tb) with
           | Some a, Some b ->
               let c = compare a b in
               if c <> 0 then c else compare fa fb
           | Some _, None -> -1
           | None, Some _ -> 1
           | None, None -> compare fa fb)
  in
  let warnings =
    List.filter_map
      (fun (ts, f) ->
        if ts = None then
          Some
            (Printf.sprintf
               "%s: no recognisable timestamp in filename; ordered last" f)
        else None)
      keyed
  in
  (List.map snd keyed, warnings)

(* Hot-path regressions below this baseline are reported, not fatal:
   sub-millisecond in-process kernels swing well past 20% between
   runs of identical binaries (frequency scaling, cache state,
   neighbouring load — observed repeatedly on the 100us-1ms figure
   kernels even at a 1 s OLS quota), so gating them would make the
   gate flaky. The packet-path scenario kernels it exists for all sit
   in the tens of milliseconds. *)
let noise_floor_ns = 1e6
let regression_threshold = 0.20

let load_all ~dir =
  let files, warnings = list_ordered ~dir in
  let warnings = ref (List.rev warnings) in
  let records =
    List.filter_map
      (fun file ->
        let path = Filename.concat dir file in
        match
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        with
        | exception Sys_error msg ->
            warnings := Printf.sprintf "%s: unreadable (%s)" file msg :: !warnings;
            None
        | contents -> (
            match Json.parse contents with
            | Ok json ->
                Some { file; ts = timestamp_of_filename file; json }
            | Error msg ->
                warnings := Printf.sprintf "%s: parse error (%s)" file msg :: !warnings;
                None))
      files
  in
  (records, List.rev !warnings)
