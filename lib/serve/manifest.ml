(* Sweep manifests: an envelope around a list of tasks, each one line
   of Codec bytes — the same bytes the result cache hashes, so a
   config's digest is identical in every process that loads the
   manifest, and re-saving a loaded manifest is byte-identical. *)

module Scenario = Ebrc_exp.Scenario
module Codec = Ebrc_exp.Codec
module Json = Ebrc_obs.Json

type t = { tasks : Scenario.config list }

let codec_version = "ebrc-manifest-v1"

let to_json { tasks } =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"schema\":1,\"codec\":\"%s\",\"tasks\":[" codec_version);
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Codec.encode c))
    tasks;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let of_json s =
  Json.decode
    (fun j ->
      if Json.int "schema" j <> 1 then
        Json.bad "schema: unsupported manifest schema";
      let v = Json.str "codec" j in
      if v <> codec_version then
        Json.bad "codec: unsupported manifest codec %S (want %S)" v
          codec_version;
      { tasks = Json.list "tasks" Codec.config_of j })
    s

(* ------------------------------- io ------------------------------- *)

(* A failed save removes its tmp file, so the previous manifest and
   nothing else is left behind. *)
let save ~path m =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  try Ebrc_chaos.Io_fault.publish ~tmp path (to_json m)
  with Sys_error _ as e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let load ~path =
  match Ebrc_chaos.Io_fault.read_file path with
  | Some s -> of_json s
  | None ->
      Error (if Sys.file_exists path then "cannot read" else "no such file")

(* ------------------------------ demo ------------------------------ *)

let demo ?(seed0 = 42) ?(duration = 10.0) ~tasks () =
  let task i =
    let queue =
      if i mod 2 = 0 then Scenario.Drop_tail { capacity = 25 }
      else Scenario.Red_auto { capacity = 0 }
    in
    {
      Scenario.default_config with
      seed = seed0 + i;
      bottleneck_bps = 5e6;
      queue;
      n_tfrc = 1;
      n_tcp = 1;
      with_probe = false;
      duration;
      warmup = duration /. 5.0;
    }
  in
  { tasks = List.init (max 0 tasks) task }
