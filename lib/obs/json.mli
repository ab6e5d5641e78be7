(** The repo's one JSON implementation: a reader for its own machine
    outputs (manifests, store records, bench records, telemetry
    streams), the checked field decoders every record is read
    through, and the one printer every writer renders through, so the
    string and number format lives here and nowhere else. No
    dependencies. Not a general-purpose validator: an unknown escape
    is an error ([bad escape]), a [\u] escape below 0x80 decodes to
    its byte and one at or above 0x80 to ['?'], and non-integer
    numbers are whatever [float_of_string] accepts. *)

type t =
  | Null
  | Bool of bool
  | Int of int
      (** An integer literal that fits in an OCaml [int], read exactly
          (no rounding above 2{^53}). *)
  | Num of float  (** Any other number. *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value; the error string carries a character
    offset. Trailing whitespace is allowed, trailing content is an
    error. *)

val print : t -> string
(** Compact rendering: no whitespace, fields in list order, [Num]
    as the shortest of [%.15g]/[%.16g]/[%.17g] that reads back to the
    same double, and non-finite [Num] as [null]. In strings, quote,
    backslash and control characters are escaped and every other byte
    is copied as is. [parse] of a printed value prints back to the
    same bytes. *)

val head : string -> (string * (string * int) option) option
(** The leading fields of one stream record, read without parsing the
    rest of the line: [Some (tag, run)] when the line starts with a
    ["type"] field holding the string [tag]. [run] is [Some (key, seq)]
    when the next two fields are ["run"] (a string) and ["seq"] (an
    integer), as in every run record the stream writes, and [None]
    otherwise. [None] for a line that does not start with a type tag.
    Strings are read by the same lexer as {!parse}. *)

(** {1 Decoders}

    Checked readers of one field of an [Obj]: a missing field, or a
    value of the wrong type, raises {!Bad} with a message that names
    the field by its path, e.g.
    ["faults.spike.window.start: expected a float"]. {!decoding} turns
    that into an [Error]. *)

exception Bad of string
(** A decoding error, ["<field path>: <problem>"]. *)

val bad : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Bad} with a formatted message. *)

val decoding : (t -> 'a) -> t -> ('a, string) result
(** Run a decoder, turning {!Bad} into [Error]. *)

val decode : (t -> 'a) -> string -> ('a, string) result
(** {!parse}, then {!decoding}: the parse error or the decoder's. *)

val field : string -> t -> t
(** The field's value; missing (or not an object) raises {!Bad}. *)

val nested : string -> (t -> 'a) -> t -> 'a
(** Decode a sub-value, prefixing its errors with the field name. *)

val opt_field : string -> (t -> 'a) -> t -> 'a option
(** [null] or absent → [None]; otherwise {!nested}. *)

val list : string -> (t -> 'a) -> t -> 'a list
(** A list field, each element decoded; an element's error reads
    ["name[i].<its path>: ..."]. *)

val int : string -> t -> int
(** [Int] only: a fractional or out-of-range literal is not an int. *)

val bool : string -> t -> bool
val str : string -> t -> string

val num : string -> t -> float
(** A number field: [Num] or [Int], and [null] → [nan] (the printer
    writes a non-finite [Num] as [null]). *)

(** {1 Hex floats}

    A float stored bit-exactly (signed zeros, subnormals, [nan] and
    [±infinity] included) as its ["%h"] hex string. *)

val hex : float -> t
(** [Str (Printf.sprintf "%h" f)]. *)

val of_hex : string -> t -> float
(** Inverse of {!hex} on a value; plain JSON numbers are also accepted
    (hand-written manifests). The name is only for the error. *)

val hex_field : string -> t -> float
(** [of_hex name (field name j)]. *)
