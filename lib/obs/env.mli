(** Checked decoding of environment knobs ([EBRC_LEASE_GRACE], and the
    bench's [EBRC_JOBS] and [EBRC_BENCH_ONLY]). A value the knob's
    parser rejects fails at once, naming the variable, so a mistyped
    knob never silently means its default. The value decoders are
    shared with the CLI's flags ([seconds] checks [--stream-period]
    and [--stream-wall]). *)

val knob : ?empty:'a -> string -> (string -> ('a, string) result) -> 'a option
(** [knob ?empty var parse]: [None] when [var] is unset; [Some empty]
    when it is set to the empty string and [empty] is given; otherwise
    [Some v] when [parse] accepts the value.
    @raise Invalid_argument ["<var>: <parse's message>"] when it does
    not. *)

val int : ?min:int -> string -> (int, string) result
(** A decimal integer (surrounding blanks allowed), at least [min]
    when given. Error: ["expected an integer >= <min>, got \"<v>\""]. *)

val seconds : string -> (float, string) result
(** A finite number of seconds [>= 0]. Error: ["expected a finite
    number of seconds >= 0, got \"<v>\""]. *)
