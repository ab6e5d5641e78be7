(* The one Scenario.config <-> JSON codec. Its compact bytes are a
   manifest task, a queue task file and the result cache key, so the
   three can never disagree about what "the same experiment" is.

   Floats are "%h" hex strings (bit-exact, including -0, subnormals,
   nan and infinity), ints are exact JSON integers, and field order is
   fixed, so encode is deterministic and decode (encode c) = c. *)

module Json = Ebrc_obs.Json
module Qd = Ebrc_net.Queue_discipline
module Fault = Ebrc_net.Fault
module Formula = Ebrc_formulas.Formula

let float f = Json.Str (Printf.sprintf "%h" f)
let opt enc = function None -> Json.Null | Some v -> enc v

(* ---------------------------- encoding ---------------------------- *)

let queue_json : Scenario.queue_config -> Json.t = function
  | Scenario.Drop_tail { capacity } ->
      Obj [ ("kind", Str "droptail"); ("capacity", Int capacity) ]
  | Scenario.Red_auto { capacity } ->
      Obj [ ("kind", Str "red-auto"); ("capacity", Int capacity) ]
  | Scenario.Red_manual { capacity; params = p } ->
      Obj
        [
          ("kind", Str "red");
          ("capacity", Int capacity);
          ("min_th", float p.Qd.min_th);
          ("max_th", float p.max_th);
          ("max_p", float p.max_p);
          ("wq", float p.wq);
          ("byte_mode", Bool p.byte_mode);
          ("mean_pktsize", Int p.mean_pktsize);
          ("gentle", Bool p.gentle);
        ]

let formula_json : Formula.kind -> Json.t = function
  | Formula.Sqrt -> Obj [ ("kind", Str "sqrt") ]
  | Formula.Pftk_standard -> Obj [ ("kind", Str "pftk") ]
  | Formula.Pftk_simplified -> Obj [ ("kind", Str "pftk-simple") ]
  | Formula.Aimd { alpha; beta } ->
      Obj [ ("kind", Str "aimd"); ("alpha", float alpha); ("beta", float beta) ]

let window_json (w : Fault.window) : Json.t =
  Obj
    [
      ("start", float w.Fault.start);
      ("length", float w.length);
      ("period", float w.period);
    ]

let faults_json (fc : Fault.config) : Json.t =
  Obj
    [
      ( "flaps",
        opt
          (fun (f : Fault.flaps) : Json.t ->
            Obj
              [
                ("first_down", float f.Fault.first_down);
                ("down_mean", float f.down_mean);
                ("up_mean", float f.up_mean);
                ("flap_jitter", float f.flap_jitter);
                ("park", Bool f.park);
              ])
          fc.Fault.flaps );
      ("blackouts", List (List.map window_json fc.blackouts));
      ( "spike",
        opt
          (fun (w, d) : Json.t ->
            Obj [ ("window", window_json w); ("delay", float d) ])
          fc.spike );
      ( "reorder",
        opt
          (fun (w, p, h) : Json.t ->
            Obj
              [
                ("window", window_json w); ("prob", float p); ("hold", float h);
              ])
          fc.reorder );
      ( "duplicate",
        opt
          (fun (w, p) : Json.t ->
            Obj [ ("window", window_json w); ("prob", float p) ])
          fc.duplicate );
    ]

let background_json (bg : Scenario.background) : Json.t =
  Obj
    [
      ("bg_flows", Int bg.Scenario.bg_flows);
      ("bg_share_cap", float bg.bg_share_cap);
      ("bg_resolution", float bg.bg_resolution);
    ]

let hop_json (h : Scenario.hop) : Json.t =
  Obj
    [
      ("hop_bps", float h.Scenario.hop_bps);
      ("hop_delay", float h.hop_delay);
      ("hop_capacity", Int h.hop_capacity);
      ("cross_fraction", float h.cross_fraction);
    ]

(* [second_hop] is omitted when [None], so every config without a hop
   keeps the bytes (and so the cache key) it had before the field. *)
let to_json (c : Scenario.config) : Json.t =
  let fields : (string * Json.t) list =
    [
      ("seed", Int c.Scenario.seed);
      ("bottleneck_bps", float c.bottleneck_bps);
      ("one_way_delay", float c.one_way_delay);
      ("queue", queue_json c.queue);
      ("packet_size", Int c.packet_size);
      ("n_tfrc", Int c.n_tfrc);
      ("n_tcp", Int c.n_tcp);
      ("with_probe", Bool c.with_probe);
      ("tfrc_l", Int c.tfrc_l);
      ("formula", formula_json c.tfrc_formula_kind);
      ("comprehensive", Bool c.tfrc_comprehensive);
      ("conform", Bool c.tfrc_conform_to_analysis);
      ("reverse_jitter", float c.reverse_jitter);
      ("duration", float c.duration);
      ("warmup", float c.warmup);
      ("faults", opt faults_json c.faults);
      ("background", opt background_json c.background);
    ]
  in
  Obj
    (match c.second_hop with
    | None -> fields
    | Some h -> fields @ [ ("second_hop", hop_json h) ])

let encode c = Json.print (to_json c)

(* ---------------------------- decoding ---------------------------- *)

(* The message is "<path>: <problem>"; [nested] prefixes the path on the
   way out, so a nested error reads "faults.spike.window.start: ...". *)
exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let field name j =
  match Json.member name j with
  | None -> bad "%s: missing" name
  | Some v -> v

let nested name dec j =
  let v = field name j in
  try dec v with Bad m -> raise (Bad (name ^ "." ^ m))

let int name j =
  match field name j with
  | Json.Int n -> n
  | _ -> bad "%s: expected an integer" name

let bool name j =
  match field name j with
  | Json.Bool b -> b
  | _ -> bad "%s: expected a boolean" name

let str name j =
  match field name j with
  | Json.Str s -> s
  | _ -> bad "%s: expected a string" name

(* Hex-float strings; plain JSON numbers are also accepted so
   hand-written manifests work. *)
let to_float name : Json.t -> float = function
  | Str s -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> bad "%s: unparsable float %S" name s)
  | Int i -> float_of_int i
  | Num f -> f
  | _ -> bad "%s: expected a float" name

let float_field name j = to_float name (field name j)

let opt_field name dec j =
  match Json.member name j with
  | None | Some Json.Null -> None
  | Some _ -> Some (nested name dec j)

let list name dec j =
  match field name j with
  | Json.List xs ->
      List.mapi
        (fun i x ->
          try dec x with Bad m -> bad "%s[%d].%s" name i m)
        xs
  | _ -> bad "%s: expected a list" name

let window_of j : Fault.window =
  {
    Fault.start = float_field "start" j;
    length = float_field "length" j;
    period = float_field "period" j;
  }

let queue_of j : Scenario.queue_config =
  match str "kind" j with
  | "droptail" -> Scenario.Drop_tail { capacity = int "capacity" j }
  | "red-auto" -> Scenario.Red_auto { capacity = int "capacity" j }
  | "red" ->
      Scenario.Red_manual
        {
          capacity = int "capacity" j;
          params =
            {
              Qd.min_th = float_field "min_th" j;
              max_th = float_field "max_th" j;
              max_p = float_field "max_p" j;
              wq = float_field "wq" j;
              byte_mode = bool "byte_mode" j;
              mean_pktsize = int "mean_pktsize" j;
              gentle = bool "gentle" j;
            };
        }
  | k -> bad "kind: unknown queue kind %S" k

let formula_of j : Formula.kind =
  match str "kind" j with
  | "sqrt" -> Formula.Sqrt
  | "pftk" -> Formula.Pftk_standard
  | "pftk-simple" -> Formula.Pftk_simplified
  | "aimd" ->
      Formula.Aimd
        { alpha = float_field "alpha" j; beta = float_field "beta" j }
  | k -> bad "kind: unknown formula kind %S" k

let faults_of j : Fault.config =
  {
    Fault.flaps =
      opt_field "flaps"
        (fun f ->
          {
            Fault.first_down = float_field "first_down" f;
            down_mean = float_field "down_mean" f;
            up_mean = float_field "up_mean" f;
            flap_jitter = float_field "flap_jitter" f;
            park = bool "park" f;
          })
        j;
    blackouts = list "blackouts" window_of j;
    spike =
      opt_field "spike"
        (fun s -> (nested "window" window_of s, float_field "delay" s))
        j;
    reorder =
      opt_field "reorder"
        (fun s ->
          (nested "window" window_of s, float_field "prob" s,
           float_field "hold" s))
        j;
    duplicate =
      opt_field "duplicate"
        (fun s -> (nested "window" window_of s, float_field "prob" s))
        j;
  }

let background_of j : Scenario.background =
  {
    Scenario.bg_flows = int "bg_flows" j;
    bg_share_cap = float_field "bg_share_cap" j;
    bg_resolution = float_field "bg_resolution" j;
  }

let hop_of j : Scenario.hop =
  {
    Scenario.hop_bps = float_field "hop_bps" j;
    hop_delay = float_field "hop_delay" j;
    hop_capacity = int "hop_capacity" j;
    cross_fraction = float_field "cross_fraction" j;
  }

let config_of j : Scenario.config =
  {
    Scenario.seed = int "seed" j;
    bottleneck_bps = float_field "bottleneck_bps" j;
    one_way_delay = float_field "one_way_delay" j;
    queue = nested "queue" queue_of j;
    packet_size = int "packet_size" j;
    n_tfrc = int "n_tfrc" j;
    n_tcp = int "n_tcp" j;
    with_probe = bool "with_probe" j;
    tfrc_l = int "tfrc_l" j;
    tfrc_formula_kind = nested "formula" formula_of j;
    tfrc_comprehensive = bool "comprehensive" j;
    tfrc_conform_to_analysis = bool "conform" j;
    reverse_jitter = float_field "reverse_jitter" j;
    duration = float_field "duration" j;
    warmup = float_field "warmup" j;
    faults = opt_field "faults" faults_of j;
    background = opt_field "background" background_of j;
    second_hop = opt_field "second_hop" hop_of j;
  }

let decoding dec j = try Ok (dec j) with Bad m -> Error m
let of_json j = decoding config_of j

let decode s =
  match Json.parse s with Error e -> Error e | Ok j -> of_json j
