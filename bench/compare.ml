(* Judge the newest BENCH_*.json record against the previous one and
   exit 1 on any failing finding. The records, their order and the
   rules all come from Ebrc_obs.Bench_records. Set
   EBRC_COMPARE_WARN_ONLY=1 for the one run that establishes a new
   baseline after an intentional simulator change: it demotes counter
   drift and the stream-off timing gate, never an identity gate. *)

module R = Ebrc_obs.Bench_records

let () =
  let records, warnings = R.load_all ~dir:"." in
  List.iter (Printf.eprintf "bench-compare: %s\n") warnings;
  let newest_two names =
    match List.rev names with a :: b :: _ -> Some (b, a) | _ -> None
  in
  match
    ( newest_two (fst (R.list_ordered ~dir:".")),
      newest_two (List.map (fun r -> r.R.file) records) )
  with
  | None, _ ->
      print_endline
        "bench-compare: need at least two BENCH_*.json records (run `make \
         bench` twice)"
  | names, loaded when names <> loaded ->
      prerr_endline "bench-compare: FAIL — the newest two records must load";
      exit 1
  | Some (prev, newest), _ ->
      Printf.printf "bench-compare: %s (baseline) -> %s (current)\n\n" prev
        newest;
      let json file = (List.find (fun r -> r.R.file = file) records).R.json in
      let findings =
        R.gate
          ~warn_only:(Sys.getenv_opt "EBRC_COMPARE_WARN_ONLY" = Some "1")
          ~baseline:(json prev) ~current:(json newest)
      in
      List.iter
        (fun f ->
          Printf.printf "  %-4s  %-46s %s\n"
            (match f.R.severity with
            | R.Fail -> "FAIL"
            | Warn -> "WARN"
            | Info -> "")
            f.subject f.detail)
        findings;
      let fails = List.filter (fun f -> f.R.severity = R.Fail) findings in
      if fails = [] then print_endline "\nbench-compare: OK"
      else begin
        Printf.printf
          "\nbench-compare: FAIL — %d finding(s); EBRC_COMPARE_WARN_ONLY=1 \
           demotes counter drift and the stream-off gate when a simulator \
           change is intended\n"
          (List.length fails);
        exit 1
      end
