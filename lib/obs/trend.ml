(* Perf-trend analytics over time-ordered bench records. *)

type group = Ns | Counter

type series = {
  key : string;
  group : group;
  n : int;
  first : float;
  last : float;
  best : float;
  slope : float;
  regressed : bool;
  improved : bool;
  changed : bool;
}

let ols_slope points =
  (* points : (float index, value) list, n >= 2 *)
  let n = float_of_int (List.length points) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 points in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 points in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 points in
  let denom = (n *. sxx) -. (sx *. sx) in
  if denom = 0.0 then 0.0 else ((n *. sxy) -. (sx *. sy)) /. denom

(* Pull (key, value) pairs for one record, tagged by group. *)
let record_pairs (r : Bench_records.record) =
  let num_fields j =
    match j with
    | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, v) ->
            match Json.to_float v with
            | Some f when Float.is_finite f -> Some (k, f)
            | _ -> None)
          fields
    | _ -> []
  in
  let micro = num_fields (Json.member "microbench_ns_per_run" r.json) in
  let counters =
    num_fields
      (Option.bind
         (Json.member "telemetry_summary" r.json)
         (Json.member "counters"))
  in
  List.map (fun (k, v) -> (Ns, k, v)) micro
  @ List.map (fun (k, v) -> (Counter, k, v)) counters

let analyze records =
  (* (group, key) -> (record index, value) list, newest last. *)
  let tbl : (group * string, (int * float) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iteri
    (fun i r ->
      List.iter
        (fun (g, k, v) ->
          match Hashtbl.find_opt tbl (g, k) with
          | Some l -> l := (i, v) :: !l
          | None -> Hashtbl.add tbl (g, k) (ref [ (i, v) ]))
        (record_pairs r))
    records;
  let series =
    Hashtbl.fold
      (fun (group, key) pts acc ->
        let pts = List.rev !pts in
        let values = List.map snd pts in
        let n = List.length values in
        let first = List.hd values in
        let last = List.nth values (n - 1) in
        let best =
          match group with
          | Ns -> List.fold_left Float.min infinity values
          | Counter -> nan
        in
        let slope =
          if n < 2 then 0.0
          else
            ols_slope (List.map (fun (i, v) -> (float_of_int i, v)) pts)
        in
        let regressed =
          group = Ns && n >= 2 && best >= Bench_records.noise_floor_ns
          && last > best *. (1.0 +. Bench_records.regression_threshold)
        in
        let improved = group = Ns && n >= 2 && last <= first *. 0.8 in
        let changed = group = Counter && n >= 2 && last <> first in
        { key; group; n; first; last; best; slope; regressed; improved;
          changed }
        :: acc)
      tbl []
  in
  List.sort
    (fun a b ->
      match (a.group, b.group) with
      | Ns, Counter -> -1
      | Counter, Ns -> 1
      | _ -> compare a.key b.key)
    series

let flag s =
  if s.regressed then "REGRESSED"
  else if s.improved then "improved"
  else if s.changed then "CHANGED"
  else ""

let render ~files series =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "bench trend over %d records (%s .. %s)\n"
       (List.length files)
       (match files with f :: _ -> f | [] -> "-")
       (match List.rev files with f :: _ -> f | [] -> "-"));
  let section g title unit =
    let rows = List.filter (fun s -> s.group = g) series in
    if rows <> [] then begin
      Buffer.add_string buf (Printf.sprintf "  %s:\n" title);
      Buffer.add_string buf
        (Printf.sprintf "    %-52s %3s %12s %12s %12s %12s  %s\n" "key" "n"
           "first" "last" "best" ("slope/" ^ unit) "flag");
      List.iter
        (fun s ->
          Buffer.add_string buf
            (Printf.sprintf "    %-52s %3d %12.4g %12.4g %12.4g %12.4g  %s\n"
               s.key s.n s.first s.last
               (if Float.is_nan s.best then s.last else s.best)
               s.slope (flag s)))
        rows
    end
  in
  section Ns "hot-path timings (ns/run)" "rec";
  section Counter "telemetry counters" "rec";
  let n_reg = List.length (List.filter (fun s -> s.regressed) series) in
  let n_chg = List.length (List.filter (fun s -> s.changed) series) in
  Buffer.add_string buf
    (Printf.sprintf "  %d regressed timing(s), %d drifted counter(s)\n" n_reg
       n_chg);
  Buffer.contents buf

let to_json ~files ~warnings series =
  let strs l = Json.List (List.map (fun s -> Json.Str s) l) in
  let series_json s =
    Json.Obj
      [
        ("key", Str s.key);
        ("group", Str (match s.group with Ns -> "ns" | Counter -> "counter"));
        ("n", Int s.n);
        ("first", Num s.first);
        ("last", Num s.last);
        ("best", Num s.best);
        ("slope", Num s.slope);
        ("regressed", Bool s.regressed);
        ("improved", Bool s.improved);
        ("changed", Bool s.changed);
      ]
  in
  Json.print
    (Obj
       [
         ("records", strs files);
         ("warnings", strs warnings);
         ("series", List (List.map series_json series));
       ])
  ^ "\n"
