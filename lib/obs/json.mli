(** The repo's one JSON implementation: a reader for its own machine
    outputs (manifests, store records, bench records, telemetry
    streams) and the one printer every writer renders through, so the
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

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on anything else. *)

val to_float : t -> float option
(** [Num] and [Int]; also [Null] → [nan] (the printer emits [null]
    for non-finite floats). *)

val to_int : t -> int option
(** [Int] only: a fractional or out-of-range literal is not an int. *)

val to_string : t -> string option
