(* api-lint: list every top-level lib/ export with no caller outside its
   own module or with callers only under test/, and fail on any that
   the allowlist does not name with a reason.

   Usage: main.exe [ROOT [ALLOWLIST]]
   ROOT defaults to the current directory. Without an ALLOWLIST the
   list is printed and the exit code is 0. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The sources under [root]/{lib,bin,bench,examples,test}: every .ml and
   .mli, and the dune files that name lib/'s libraries. *)
let sources root =
  let rec walk rel acc =
    let dir = Filename.concat root rel in
    if not (Sys.file_exists dir && Sys.is_directory dir) then acc
    else
      Array.fold_left
        (fun acc entry ->
          let rel = rel ^ "/" ^ entry in
          let path = Filename.concat root rel in
          if Sys.is_directory path then walk rel acc
          else if
            Filename.check_suffix entry ".ml"
            || Filename.check_suffix entry ".mli"
            || entry = "dune"
          then (rel, read_file path) :: acc
          else acc)
        acc (Sys.readdir dir)
  in
  List.fold_left (fun acc d -> walk d acc) [] [ "lib"; "bin"; "bench"; "examples"; "test" ]

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let findings = Api_lint.analyse (sources root) in
  let count s = List.length (List.filter (fun f -> f.Api_lint.status = s) findings) in
  List.iter
    (fun f ->
      Printf.printf "%-10s %s\n"
        (match f.Api_lint.status with Dead -> "dead" | Test_only -> "test-only")
        (Api_lint.qualified f))
    findings;
  Printf.printf
    "api-lint: %d exports with no caller outside their own module, %d used only from test/\n"
    (count Dead) (count Test_only);
  if Array.length Sys.argv > 2 then begin
    let allowlist = Api_lint.parse_allowlist (read_file Sys.argv.(2)) in
    match Api_lint.check ~allowlist findings with
    | [] -> ()
    | errors ->
        List.iter (fun e -> prerr_endline ("api-lint: " ^ e)) errors;
        exit 1
  end
