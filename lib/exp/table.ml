(* Plain-text table and CSV rendering for experiment output. Every
   figure runner produces a [t]; the CLI prints it as an aligned ASCII
   table and can also emit CSV for external plotting. *)

type t = {
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

let create ~title ~header = { title; header; rows = []; notes = [] }

let add_row t row =
  if List.length row <> List.length t.header then
    invalid_arg "Table.add_row: column count mismatch";
  { t with rows = t.rows @ [ row ] }

let add_note t note = { t with notes = t.notes @ [ note ] }

let cell_float ?(decimals = 4) v =
  if Float.is_nan v then "nan"
  else if Float.is_integer v && abs_float v < 1e9 && decimals <= 4 then
    Printf.sprintf "%.*f" decimals v
  else Printf.sprintf "%.*g" (decimals + 2) v

let widths t =
  let cols = List.length t.header in
  let w = Array.make cols 0 in
  let feed row =
    List.iteri (fun i c -> w.(i) <- max w.(i) (String.length c)) row
  in
  feed t.header;
  List.iter feed t.rows;
  w

let render_row w row =
  let cells =
    List.mapi (fun i c -> Printf.sprintf "%-*s" w.(i) c) row
  in
  "| " ^ String.concat " | " cells ^ " |"

let to_string t =
  let w = widths t in
  let sep =
    "+"
    ^ String.concat "+"
        (Array.to_list (Array.map (fun n -> String.make (n + 2) '-') w))
    ^ "+"
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (sep ^ "\n");
  Buffer.add_string buf (render_row w t.header ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (render_row w r ^ "\n")) t.rows;
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun n -> Buffer.add_string buf ("note: " ^ n ^ "\n")) t.notes;
  Buffer.contents buf

let print t = print_string (to_string t)

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let line cells = String.concat "," (List.map csv_escape cells) in
  String.concat "\n" (line t.header :: List.map line t.rows) ^ "\n"

let to_markdown t =
  let line cells = "| " ^ String.concat " | " cells ^ " |\n" in
  String.concat ""
    ((("### " ^ t.title ^ "\n\n") :: line t.header
     :: ("|" ^ String.concat "|" (List.map (fun _ -> "---") t.header) ^ "|\n")
     :: List.map line t.rows)
    @ ("\n" :: List.map (fun n -> "> " ^ n ^ "\n\n") t.notes))

let save_csv t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv t))
