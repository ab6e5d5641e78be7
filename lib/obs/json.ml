(* Recursive-descent JSON reader, checked field decoders and compact
   printer. The inputs are this repo's own manifests, store records,
   bench and stream files (small: at most a few MB), so clarity beats
   zero-copy cleverness. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ----------------------------- lexing ----------------------------- *)

exception Fail of string * int

(* The input and the read position: [parse] reads a whole value
   through it, [head] only a record's leading fields. *)
type lexer = { s : string; mutable pos : int }

let fail lx msg = raise (Fail (msg, lx.pos))
let peek lx = if lx.pos < String.length lx.s then Some lx.s.[lx.pos] else None
let advance lx = lx.pos <- lx.pos + 1

let skip_ws lx =
  while
    lx.pos < String.length lx.s
    && match lx.s.[lx.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance lx
  done

let expect lx c =
  if lx.pos < String.length lx.s && lx.s.[lx.pos] = c then advance lx
  else fail lx (Printf.sprintf "expected '%c'" c)

let literal lx word v =
  let l = String.length word in
  if lx.pos + l <= String.length lx.s && String.sub lx.s lx.pos l = word
  then begin
    lx.pos <- lx.pos + l;
    v
  end
  else fail lx (Printf.sprintf "expected %s" word)

let lex_string lx =
  let s = lx.s and n = String.length lx.s in
  expect lx '"';
  let start = lx.pos in
  let rec plain i =
    if i < n && s.[i] <> '"' && s.[i] <> '\\' then plain (i + 1) else i
  in
  let i = plain start in
  lx.pos <- i;
  (* Most strings (record tags, run keys, field names) hold no escape:
     those are one copy. *)
  if i < n && s.[i] = '"' then begin
    advance lx;
    String.sub s start (i - start)
  end
  else begin
    let b = Buffer.create (i - start + 16) in
    Buffer.add_substring b s start (i - start);
    let rec go () =
      if lx.pos >= n then fail lx "unterminated string"
      else
        match s.[lx.pos] with
        | '"' -> advance lx
        | '\\' ->
            advance lx;
            (if lx.pos >= n then fail lx "unterminated escape"
             else
               match s.[lx.pos] with
               | '"' -> Buffer.add_char b '"'; advance lx
               | '\\' -> Buffer.add_char b '\\'; advance lx
               | '/' -> Buffer.add_char b '/'; advance lx
               | 'n' -> Buffer.add_char b '\n'; advance lx
               | 't' -> Buffer.add_char b '\t'; advance lx
               | 'r' -> Buffer.add_char b '\r'; advance lx
               | 'b' -> Buffer.add_char b '\b'; advance lx
               | 'f' -> Buffer.add_char b '\012'; advance lx
               | 'u' ->
                   advance lx;
                   if lx.pos + 4 > n then fail lx "short \\u escape";
                   let hex = String.sub s lx.pos 4 in
                   lx.pos <- lx.pos + 4;
                   (match int_of_string_opt ("0x" ^ hex) with
                   | None -> fail lx "bad \\u escape"
                   | Some code ->
                       (* Our writers only escape control chars; emit
                          the raw byte for the BMP-latin subset and a
                          replacement otherwise. *)
                       if code < 0x80 then Buffer.add_char b (Char.chr code)
                       else Buffer.add_char b '?')
               | c -> fail lx (Printf.sprintf "bad escape '\\%c'" c));
            go ()
        | c ->
            Buffer.add_char b c;
            advance lx;
            go ()
    in
    go ();
    Buffer.contents b
  end

let lex_number lx =
  let s = lx.s and n = String.length lx.s in
  let start = lx.pos in
  let num_char c =
    (c >= '0' && c <= '9')
    || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
  in
  while lx.pos < n && num_char s.[lx.pos] do
    advance lx
  done;
  let lit = String.sub s start (lx.pos - start) in
  (* An integer literal that fits stays exact: routing it through a
     float would round anything above 2^53. "-0" is the float. *)
  let integral =
    lit <> "-0"
    && String.for_all (fun c -> c <> '.' && c <> 'e' && c <> 'E') lit
  in
  match if integral then int_of_string_opt lit else None with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt lit with
      | Some f -> Num f
      | None -> fail lx "bad number")

let rec value lx =
  skip_ws lx;
  match peek lx with
  | None -> fail lx "unexpected end of input"
  | Some '{' ->
      advance lx;
      skip_ws lx;
      if peek lx = Some '}' then begin
        advance lx;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec go () =
          skip_ws lx;
          let k = lex_string lx in
          skip_ws lx;
          expect lx ':';
          let v = value lx in
          fields := (k, v) :: !fields;
          skip_ws lx;
          match peek lx with
          | Some ',' -> advance lx; go ()
          | Some '}' -> advance lx
          | _ -> fail lx "expected ',' or '}'"
        in
        go ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance lx;
      skip_ws lx;
      if peek lx = Some ']' then begin
        advance lx;
        List []
      end
      else begin
        let items = ref [] in
        let rec go () =
          let v = value lx in
          items := v :: !items;
          skip_ws lx;
          match peek lx with
          | Some ',' -> advance lx; go ()
          | Some ']' -> advance lx
          | _ -> fail lx "expected ',' or ']'"
        in
        go ();
        List (List.rev !items)
      end
  | Some '"' -> Str (lex_string lx)
  | Some 't' -> literal lx "true" (Bool true)
  | Some 'f' -> literal lx "false" (Bool false)
  | Some 'n' -> literal lx "null" Null
  | Some _ -> lex_number lx

let parse s =
  let lx = { s; pos = 0 } in
  match
    let v = value lx in
    skip_ws lx;
    if lx.pos <> String.length s then fail lx "trailing content";
    v
  with
  | v -> Ok v
  | exception Fail (msg, at) ->
      Error (Printf.sprintf "%s at offset %d" msg at)

(* Stream writers print the type tag first and, in a run record, the
   run key and seq right after it, so those read without lexing the
   rest of the line. *)
let head line =
  let lx = { s = line; pos = 0 } in
  let key k =
    skip_ws lx;
    if lex_string lx <> k then fail lx k;
    skip_ws lx;
    expect lx ':';
    skip_ws lx
  in
  let next k =
    skip_ws lx;
    expect lx ',';
    key k
  in
  match
    expect lx '{';
    key "type";
    let tag = lex_string lx in
    let run =
      match
        next "run";
        let run = lex_string lx in
        next "seq";
        (run, lex_number lx)
      with
      | run, Int seq -> Some (run, seq)
      | _ | (exception Fail _) -> None
    in
    (tag, run)
  with
  | h -> Some h
  | exception Fail _ -> None

(* ---------------------------- decoding ---------------------------- *)

(* The message is "<path>: <problem>"; [nested] and [list] prefix the
   path on the way out, so a nested error reads
   "faults.spike.window.start: ...". *)
exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt
let decoding dec j = try Ok (dec j) with Bad m -> Error m
let decode dec s = Result.bind (parse s) (decoding dec)

let field name = function
  | Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> bad "%s: missing" name)
  | _ -> bad "%s: missing" name

let nested name dec j =
  let v = field name j in
  try dec v with Bad m -> raise (Bad (name ^ "." ^ m))

let opt_field name dec j =
  match field name j with
  | Null | (exception Bad _) -> None
  | _ -> Some (nested name dec j)

let list name dec j =
  match field name j with
  | List xs ->
      List.mapi (fun i x -> try dec x with Bad m -> bad "%s[%d].%s" name i m) xs
  | _ -> bad "%s: expected a list" name

let int name j =
  match field name j with Int n -> n | _ -> bad "%s: expected an integer" name

let bool name j =
  match field name j with Bool b -> b | _ -> bad "%s: expected a boolean" name

let str name j =
  match field name j with Str s -> s | _ -> bad "%s: expected a string" name

(* The printer writes a non-finite [Num] as null, so null reads back as
   nan. *)
let num name j =
  match field name j with
  | Num f -> f
  | Int i -> float_of_int i
  | Null -> nan
  | _ -> bad "%s: expected a number" name

let hex f = Str (Printf.sprintf "%h" f)

(* Plain JSON numbers are also accepted, so hand-written manifests
   work. *)
let of_hex name = function
  | Str s -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> bad "%s: unparsable float %S" name s)
  | Int i -> float_of_int i
  | Num f -> f
  | _ -> bad "%s: expected a float" name

let hex_field name j = of_hex name (field name j)

(* ---------------------------- printing ---------------------------- *)

(* Most strings (metric names, run keys, digests) need no escaping:
   those are copied in one blit. *)
let rec plain s i =
  i = String.length s
  || (let c = s.[i] in
      c <> '"' && c <> '\\' && c >= ' ' && plain s (i + 1))

let add_string buf s =
  Buffer.add_char buf '"';
  if plain s 0 then Buffer.add_string buf s
  else
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

(* Shortest of %.15g / %.16g / %.17g that reads back to the same
   double; JSON has no non-finite numbers, so those print as null.
   A non-zero integral double below 1e15 is exactly what %.15g prints
   for it, so it skips the sprintf and the read-back (zero takes the
   slow path to keep -0's sign). *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 && f <> 0.0 then
    string_of_int (int_of_float f)
  else if not (Float.is_finite f) then "null"
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 15

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Num f -> Buffer.add_string buf (number f)
  | Str s -> add_string buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k;
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let print j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf
