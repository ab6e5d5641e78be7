(** The one {!Scenario.config} ↔ JSON codec.

    [encode c] is the canonical compact rendering of every config
    field: floats as ["%h"] hex strings (bit-exact, including [-0.],
    subnormals, [nan] and [±infinity]), ints as exact JSON integers,
    fields in a fixed order. The same bytes are a sweep-manifest task,
    a task-queue spec file and the {!Result_cache} key, whose MD5 is
    the store record's file name. Adding a config field is one edit
    here (plus a [Result_cache.code_version] bump). *)

val to_json : Scenario.config -> Ebrc_obs.Json.t

val config_of : Ebrc_obs.Json.t -> Scenario.config
(** Inverse of {!to_json}, built from [Ebrc_obs.Json]'s decoders: it
    raises [Json.Bad] with the field's path, e.g.
    ["faults.spike.window.start: expected a float"], and reads inside a
    larger record (a manifest's task list, a store record's key) with
    the record's path prefixed. Float fields also accept plain JSON
    numbers (hand-written manifests); int fields accept only exact
    integers. *)

val encode : Scenario.config -> string
(** [Ebrc_obs.Json.print (to_json c)]. *)

val decode : string -> (Scenario.config, string) result
(** Parse, then {!config_of} with its error as [Error].
    [decode (encode c)] equals [c] (property-tested, signed zeros and
    [nan] included). *)
