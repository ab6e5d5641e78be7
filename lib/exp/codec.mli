(** The one {!Scenario.config} ↔ JSON codec.

    [encode c] is the canonical compact rendering of every config
    field: floats as ["%h"] hex strings (bit-exact, including [-0.],
    subnormals, [nan] and [±infinity]), ints as exact JSON integers,
    fields in a fixed order. The same bytes are a sweep-manifest task,
    a task-queue spec file and the {!Result_cache} key, whose MD5 is
    the store record's file name. Adding a config field is one edit
    here (plus a [Result_cache.code_version] bump). *)

val to_json : Scenario.config -> Ebrc_obs.Json.t

val of_json : Ebrc_obs.Json.t -> (Scenario.config, string) result
(** Inverse of {!to_json}. Float fields also accept plain JSON numbers
    (hand-written manifests); int fields accept only exact integers.
    An error names the field by its path, e.g.
    ["faults.spike.window.start: expected a float"]. *)

val encode : Scenario.config -> string
(** [Ebrc_obs.Json.print (to_json c)]. *)

val decode : string -> (Scenario.config, string) result
(** Parse, then {!of_json}. [decode (encode c)] equals [c]
    (property-tested, signed zeros and [nan] included). *)

(** {2 Field decoders}

    The primitives the config decoder is built from, shared by the
    result-store record so both read floats and ints the same way. *)

val float : float -> Ebrc_obs.Json.t
(** A float as its ["%h"] hex string. *)

exception Bad of string
(** A decoding error, ["<field path>: <problem>"]. *)

val bad : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Bad} with a formatted message. *)

val config_of : Ebrc_obs.Json.t -> Scenario.config
(** {!of_json} that raises {!Bad}. *)

val field : string -> Ebrc_obs.Json.t -> Ebrc_obs.Json.t
val int : string -> Ebrc_obs.Json.t -> int
val str : string -> Ebrc_obs.Json.t -> string

val to_float : string -> Ebrc_obs.Json.t -> float
(** [to_float name v]: a hex string or JSON number; [name] is only for
    the error. *)

val float_field : string -> Ebrc_obs.Json.t -> float

val nested : string -> (Ebrc_obs.Json.t -> 'a) -> Ebrc_obs.Json.t -> 'a
(** Decode a sub-object, prefixing its errors with the field name. *)

val opt_field :
  string -> (Ebrc_obs.Json.t -> 'a) -> Ebrc_obs.Json.t -> 'a option
(** [null] or absent → [None]. *)

val list : string -> (Ebrc_obs.Json.t -> 'a) -> Ebrc_obs.Json.t -> 'a list

val decoding : (Ebrc_obs.Json.t -> 'a) -> Ebrc_obs.Json.t -> ('a, string) result
(** Run a decoder, turning {!Bad} into [Error]. *)
