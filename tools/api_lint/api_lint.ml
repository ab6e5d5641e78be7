(* The public surface of lib/, measured by its callers. Every top-level
   [val] of a lib/**/*.mli is an export; a use is a reference to it from
   any other compilation unit, resolved through the names OCaml itself
   resolves: library wrappers ([Ebrc_net.Gap_sink.received]), sibling
   modules of the same library, the [Ebrc] umbrella's aliases
   ([Ebrc.Telemetry_stream] is [Ebrc_telemetry.Stream]), local aliases
   ([module GS = Ebrc.Gap_sink] ... [GS.received]), [open M],
   [let open M in] and [M.( ... )]. An export is dead when nothing
   outside its own module uses it, and test-only when every use is under
   test/.

   The scan is lexical and errs towards "used": an [open]'s scope runs
   to the end of its enclosing block (to the next top-level item for
   [let open]), and a type that shares a val's name counts as a use of
   the val. A module passed whole to a functor or packed as a
   first-class module is not followed; no lib/ module is used that way.
   Only the OCaml stdlib. *)

(* ---- Lexing: identifiers and punctuation; comments, strings and
   character literals are dropped. *)

type tok = Uid of string | Lid of string | Sym of string

(* [col] is the token's column, so a top-level structure item (which
   starts at column 0) can end a [let open] scope. *)
type token = { tok : tok; col : int }

let is_lower c = (c >= 'a' && c <= 'z') || c = '_'
let is_upper c = c >= 'A' && c <= 'Z'
let is_digit c = c >= '0' && c <= '9'
let is_id_char c = is_lower c || is_upper c || is_digit c || c = '\''
let is_op_char c = String.contains "!$%&*+-./:<=>?@^|~#" c

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let line_start = ref 0 in
  let push tok i = toks := { tok; col = i - !line_start } :: !toks in
  let newline i = line_start := i + 1 in
  (* Index just past the string literal whose opening quote is at
     [i - 1]. *)
  let rec string_end i =
    if i >= n then n
    else
      match s.[i] with
      | '"' -> i + 1
      | '\\' -> string_end (i + 2)
      | '\n' -> newline i; string_end (i + 1)
      | _ -> string_end (i + 1)
  in
  (* [{id|...|id}] at [i]: index just past it, or [None] if the brace at
     [i] opens no quoted string. *)
  let quoted_end i =
    let j = ref (i + 1) in
    while !j < n && is_lower s.[!j] do incr j done;
    if !j >= n || s.[!j] <> '|' then None
    else
      let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
      let m = String.length close in
      let rec find k =
        if k + m > n then n
        else if String.sub s k m = close then k + m
        else (if s.[k] = '\n' then newline k; find (k + 1))
      in
      Some (find (!j + 1))
  in
  (* Index just past a character literal whose quote is at [i], or
     [None] when the quote starts a type variable. *)
  let char_end i =
    if i + 2 < n && s.[i + 1] = '\\' then
      let rec close k = if k >= n || s.[k] = '\'' then k + 1 else close (k + 1) in
      Some (close (i + 3))
    else if i + 2 < n && s.[i + 2] = '\'' && s.[i + 1] <> '\n' then Some (i + 3)
    else None
  in
  let rec comment_end i depth =
    if i + 1 >= n then n
    else
      match s.[i], s.[i + 1] with
      | '(', '*' -> comment_end (i + 2) (depth + 1)
      | '*', ')' -> if depth = 1 then i + 2 else comment_end (i + 2) (depth - 1)
      | '"', _ -> comment_end (string_end (i + 1)) depth
      | '{', _ -> (
          match quoted_end i with
          | Some j -> comment_end j depth
          | None -> comment_end (i + 1) depth)
      | '\'', _ -> (
          match char_end i with
          | Some j -> comment_end j depth
          | None -> comment_end (i + 1) depth)
      | '\n', _ -> newline i; comment_end (i + 1) depth
      | _ -> comment_end (i + 1) depth
  in
  let rec go i =
    if i >= n then ()
    else
      let c = s.[i] in
      if c = '\n' then (newline i; go (i + 1))
      else if c = ' ' || c = '\t' || c = '\r' then go (i + 1)
      else if c = '(' && i + 1 < n && s.[i + 1] = '*' then go (comment_end (i + 2) 1)
      else if c = '"' then go (string_end (i + 1))
      else if c = '\'' then
        match char_end i with Some j -> go j | None -> go (i + 1)
      else if c = '{' && quoted_end i <> None then
        match quoted_end i with Some j -> go j | None -> assert false
      else if is_lower c || is_upper c then (
        let j = ref i in
        while !j < n && is_id_char s.[!j] do incr j done;
        let id = String.sub s i (!j - i) in
        push (if is_upper c then Uid id else Lid id) i;
        go !j)
      else if is_digit c then (
        let j = ref i in
        while !j < n && (is_id_char s.[!j] || s.[!j] = '.') do incr j done;
        go !j)
      else if c = '.' then
        if i + 1 < n && s.[i + 1] = '.' then (push (Sym "..") i; go (i + 2))
        else (push (Sym ".") i; go (i + 1))
      else if is_op_char c then (
        let j = ref i in
        while !j < n && is_op_char s.[!j] do incr j done;
        push (Sym (String.sub s i (!j - i))) i;
        go !j)
      else (push (Sym (String.make 1 c)) i; go (i + 1))
  in
  go 0;
  Array.of_list (List.rev !toks)

(* ---- The surface: libraries, their modules and their exports. *)

type category = Lib | Bin | Bench | Examples | Test

(* One compilation unit of a lib/ library. *)
type unit_ = {
  lib : string;  (** dune library name *)
  name : string;  (** module name, e.g. [Gap_sink] *)
  exports : string list;  (** top-level vals of its .mli *)
  mutable aliases : (string * target) list;
      (** the module aliases it exports (a unit without an .mli, such as
          the [Ebrc] umbrella) *)
}

(* What a module path denotes: a library's namespace or one unit. *)
and target = Namespace of string | Unit of unit_

type status = Dead | Test_only

type finding = { modname : string; value : string; status : status }

let category_of path =
  match String.index_opt path '/' with
  | None -> None
  | Some k -> (
      match String.sub path 0 k with
      | "lib" -> Some Lib
      | "bin" -> Some Bin
      | "bench" -> Some Bench
      | "examples" -> Some Examples
      | "test" -> Some Test
      | _ -> None)

let module_of_file path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* The library a lib/ dune file declares: the atom after [(name]. *)
let library_name dune =
  let toks = tokenize dune in
  let rec find i =
    if i + 2 >= Array.length toks then None
    else
      match toks.(i).tok, toks.(i + 1).tok, toks.(i + 2).tok with
      | Sym "(", Lid "name", Lid l -> Some l
      | _ -> find (i + 1)
  in
  find 0

let opens_block = function
  | Sym ("(" | "[" | "{") | Lid ("sig" | "struct" | "object" | "begin") -> true
  | _ -> false

let closes_block = function
  | Sym (")" | "]" | "}") | Lid "end" -> true
  | _ -> false

(* The top-level [val]s of an interface. *)
let exports_of_mli src =
  let toks = tokenize src in
  let depth = ref 0 and vals = ref [] in
  Array.iteri
    (fun i t ->
      if opens_block t.tok then incr depth
      else if closes_block t.tok then decr depth
      else if !depth = 0 && (t.tok = Lid "val" || t.tok = Lid "external") then
        match if i + 1 < Array.length toks then toks.(i + 1).tok else Sym "" with
        | Lid v -> vals := v :: !vals
        | _ -> ())
    toks;
  List.rev !vals

(* ---- Use resolution. *)

type scope = {
  unit : unit_;  (** whose exports bare names may denote *)
  depth : int;  (** the scope closes when the block depth drops below *)
  item : bool;  (** a [let open]: the next top-level item closes it *)
}

let starts_item = function
  | Lid ("let" | "type" | "module" | "open" | "exception" | "external" | "include" | "class") ->
      true
  | _ -> false

(* Scan one file's tokens. [env] maps the module names in scope to what
   they denote; [use u v] is called for each reference to export [v] of
   unit [u]; [alias name t] for each top-level module alias. *)
let scan ~env ~members ~use ~alias toks =
  let n = Array.length toks in
  let env = ref env and scopes = ref [] and depth = ref 0 in
  let tok i = if i >= 0 && i < n then toks.(i).tok else Sym "" in
  let resolve path =
    match path with
    | [] -> None
    | m :: rest ->
        List.fold_left
          (fun t m ->
            Option.bind t (fun t -> List.assoc_opt m (members t)))
          (List.assoc_opt m !env) rest
  in
  (* The module path [A.B.C] starting at [i] and the index after it. *)
  let path_at i =
    let rec go i acc =
      match tok i with
      | Uid m when tok (i + 1) = Sym "." && (match tok (i + 2) with Uid _ -> true | _ -> false) ->
          go (i + 2) (m :: acc)
      | Uid m -> (List.rev (m :: acc), i + 1)
      | _ -> (List.rev acc, i)
    in
    go i []
  in
  let open_target ~item t =
    env := members t @ !env;
    match t with
    | Unit u when u.exports <> [] -> scopes := { unit = u; depth = !depth; item } :: !scopes
    | _ -> ()
  in
  let rec go i =
    if i < n then begin
      let t = toks.(i) in
      if closes_block t.tok then begin
        decr depth;
        scopes := List.filter (fun s -> s.depth <= !depth) !scopes
      end;
      if t.col = 0 && starts_item t.tok then
        scopes := List.filter (fun s -> not s.item) !scopes;
      if opens_block t.tok then incr depth;
      match t.tok with
      | Lid "module" when tok (i + 1) <> Lid "type" ->
          let j = if tok (i + 1) = Lid "rec" then i + 2 else i + 1 in
          (match tok j, tok (j + 1) with
           | Uid name, Sym "=" ->
               let path, k = path_at (j + 2) in
               (match tok k, resolve path with
                | (Sym ("(" | ".") | Lid "struct"), _ | _, None -> ()
                | _, Some target ->
                    env := (name, target) :: !env;
                    if !depth = 0 then alias name target)
           | _ -> ());
          go (j + 1)
      | Lid "open" ->
          let j = if tok (i + 1) = Sym "!" then i + 2 else i + 1 in
          let path, k = path_at j in
          Option.iter (open_target ~item:(tok (i - 1) = Lid "let")) (resolve path);
          go k
      | Lid "include" ->
          let path, k = path_at (i + 1) in
          (match resolve path with
           | Some (Unit u) -> List.iter (use u) u.exports
           | _ -> ());
          go k
      | Uid _ ->
          let path, k = path_at i in
          let projection = tok (i - 1) = Sym "." in
          (match tok k, tok (k + 1) with
           | Sym ".", Lid v when not projection -> (
               let label =
                 (match tok (i - 1) with Sym ("{" | ";") | Lid "with" -> true | _ -> false)
                 && match tok (k + 2) with Sym ("=" | ";" | "}") -> true | _ -> false
               in
               match resolve path with
               | Some (Unit u) when not label -> use u v
               | _ -> ())
           | Sym ".", Sym ("(" | "[" | "{") when not projection ->
               (* [M.( e )]: the block about to open holds M's names. *)
               Option.iter
                 (fun t ->
                   incr depth;
                   open_target ~item:false t;
                   decr depth)
                 (resolve path)
           | _ -> ());
          go k
      | Lid v ->
          let binder =
            match tok (i - 1) with
            | Sym "." | Lid ("let" | "and" | "rec" | "val" | "external" | "type") -> true
            | Sym ("~" | "?") -> tok (i + 1) = Sym ":"
            | _ -> false
          in
          if not binder then List.iter (fun s -> use s.unit v) !scopes;
          go (i + 1)
      | Sym _ -> go (i + 1)
    end
  in
  go 0

(* [files] are (path, contents) pairs, paths relative to the repository
   root (lib/net/flow_stats.mli, lib/net/dune, test/test_net.ml, ...).
   Returns every export with no caller outside its own module, or with
   callers only under test/, sorted by module and name. *)
let analyse files =
  let lib_dirs =
    List.filter_map
      (fun (path, src) ->
        if category_of path = Some Lib && Filename.basename path = "dune" then
          Option.map (fun l -> (Filename.dirname path, l)) (library_name src)
        else None)
      files
  in
  let sources =
    List.filter
      (fun (p, _) -> Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli")
      files
  in
  let units = Hashtbl.create 64 in
  List.iter
    (fun (path, src) ->
      match List.assoc_opt (Filename.dirname path) lib_dirs with
      | None -> ()
      | Some lib ->
          let name = module_of_file path in
          let old = Hashtbl.find_opt units (lib, name) in
          let exports =
            if Filename.check_suffix path ".mli" then exports_of_mli src
            else match old with Some u -> u.exports | None -> []
          in
          Hashtbl.replace units (lib, name)
            { lib; name; exports; aliases = [] })
    sources;
  let units_of lib =
    Hashtbl.fold (fun (l, _) u acc -> if l = lib then u :: acc else acc) units []
  in
  let members = function
    | Namespace lib -> List.map (fun u -> (u.name, Unit u)) (units_of lib)
    | Unit u -> u.aliases
  in
  (* A library whose only module is named after it (the umbrella) is
     that module; any other is a namespace of its modules. *)
  let globals =
    List.map
      (fun (_, lib) ->
        let w = String.capitalize_ascii lib in
        match Hashtbl.find_opt units (lib, w) with
        | Some u -> (w, Unit u)
        | None -> (w, Namespace lib))
      lib_dirs
  in
  let unit_of_file path =
    Option.bind (List.assoc_opt (Filename.dirname path) lib_dirs) (fun lib ->
        Hashtbl.find_opt units (lib, module_of_file path))
  in
  let env_of path =
    match List.assoc_opt (Filename.dirname path) lib_dirs with
    | Some lib -> members (Namespace lib) @ globals
    | None -> globals
  in
  let has_mli path = List.mem_assoc (path ^ "i") sources in
  (* Aliases first: a unit without an interface exports its top-level
     module aliases, and every other file may reach units through
     them. *)
  let tokens = List.map (fun (p, src) -> (p, tokenize src)) sources in
  List.iter
    (fun (path, toks) ->
      match unit_of_file path with
      | Some u when Filename.check_suffix path ".ml" && not (has_mli path) ->
          scan ~env:(env_of path) ~members ~use:(fun _ _ -> ())
            ~alias:(fun name t -> u.aliases <- u.aliases @ [ (name, t) ])
            toks
      | _ -> ())
    tokens;
  let uses = Hashtbl.create 256 in
  List.iter
    (fun (path, toks) ->
      let self = unit_of_file path in
      let where = if category_of path = Some Test then `Test else `Outside in
      let use u v =
        match self with
        | Some s when s == u -> ()
        | _ -> if List.mem v u.exports then Hashtbl.replace uses (u.lib, u.name, v, where) ()
      in
      scan ~env:(env_of path) ~members ~use ~alias:(fun _ _ -> ()) toks)
    (List.filter (fun (p, _) -> category_of p <> None) tokens);
  Hashtbl.fold
    (fun _ u acc ->
      List.fold_left
        (fun acc v ->
          let used where = Hashtbl.mem uses (u.lib, u.name, v, where) in
          let finding status = { modname = u.name; value = v; status } :: acc in
          if used `Outside then acc
          else finding (if used `Test then Test_only else Dead))
        acc (List.sort_uniq compare u.exports))
    units []
  |> List.sort compare

let qualified f = f.modname ^ "." ^ f.value

(* ---- The allowlist: one [Module.name reason] per line; [#] starts a
   comment. *)

let parse_allowlist src =
  String.split_on_char '\n' src
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | None -> Some (line, "")
           | Some k ->
               Some (String.sub line 0 k, String.trim (String.sub line k (String.length line - k))))

(* The lint's verdict: one message per export outside the allowlist, per
   allowlist entry without a reason, and per entry that names no
   finding (a stale entry would let a later regression through). *)
let check ~allowlist findings =
  let reported = List.map qualified findings in
  List.filter_map
    (fun f ->
      if List.mem_assoc (qualified f) allowlist then None
      else
        Some
          (Printf.sprintf "%s %s; delete it, or allowlist it with a reason" (qualified f)
             (match f.status with
              | Dead -> "has no caller outside its own module"
              | Test_only -> "is used only from test/")))
    findings
  @ List.filter_map
      (fun (name, reason) ->
        if not (List.mem name reported) then
          Some (Printf.sprintf "allowlist entry %s is stale: it is not a dead or test-only export" name)
        else if reason = "" then Some (Printf.sprintf "allowlist entry %s has no reason" name)
        else None)
      allowlist
