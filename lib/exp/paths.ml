(* Synthetic path profiles replacing the paper's lab and Internet
   testbeds. Each profile is a scenario-configuration template chosen so
   the simulated runs land in the same operating regime the paper
   reports for that path: access rate, round-trip time, and the
   loss-event-rate range produced by N competing TFRC+TCP pairs.

   The Internet receivers (paper Table I): INRIA 100 Mb/s, 30 ms RTT;
   UMASS 100 Mb/s, 97 ms; KTH 10 Mb/s, 46 ms; UMELB 10 Mb/s, 350 ms (the
   UMELB path also exhibited batch losses — reproduced here with a small
   DropTail buffer relative to its large bandwidth-delay product). The
   lab profiles match the paper's testbed: a 10 Mb/s bottleneck with
   25 ms added propagation each way and either DropTail (64 or 100
   packets) or RED with thresholds derived from U = 62500 bytes. *)

module Formula = Ebrc_formulas.Formula

type profile = {
  name : string;
  bottleneck_bps : float;
  one_way_delay : float;
  queue : Scenario.queue_config;
  n_grid : int list;          (* numbers of TFRC (= TCP) connections *)
  comprehensive : bool;       (* the paper disabled the comprehensive
                                 control element in its lab runs and
                                 enabled it on the Internet paths *)
  description : string;
}

(* Lab RED thresholds from the paper: buffer 5/2 U, min 3/20 U, max 5/4 U
   with U = 62500 bytes; converted to packets of [pkt] bytes. *)
let lab_red_params ~pkt =
  let u = 62500.0 /. float_of_int pkt in
  {
    Ebrc_net.Queue_discipline.min_th = 0.15 *. u;
    max_th = 1.25 *. u;
    max_p = 0.1;
    wq = 0.002;
    byte_mode = false;
    mean_pktsize = pkt;
    gentle = false;
  }

let internet_n_grid = [ 1; 2; 4; 6; 8; 10 ]
let lab_n_grid = [ 1; 2; 4; 6; 9; 12; 16; 20; 25; 30; 36 ]

let inria =
  {
    name = "INRIA";
    bottleneck_bps = 40e6;
    one_way_delay = 0.015;
    queue = Scenario.Drop_tail { capacity = 150 };
    n_grid = internet_n_grid;
    comprehensive = true;
    description = "100 Mb/s access, 13 hops, ~30 ms RTT; moderate losses";
  }

let umass =
  {
    name = "UMASS";
    bottleneck_bps = 40e6;
    one_way_delay = 0.0485;
    queue = Scenario.Drop_tail { capacity = 400 };
    n_grid = internet_n_grid;
    comprehensive = true;
    description = "100 Mb/s access, 15 hops, ~97 ms RTT; small losses";
  }

let kth =
  {
    name = "KTH";
    bottleneck_bps = 10e6;
    one_way_delay = 0.023;
    queue = Scenario.Drop_tail { capacity = 200 };
    n_grid = internet_n_grid;
    comprehensive = true;
    description = "10 Mb/s access, 20 hops, ~46 ms RTT; very rare losses";
  }

let umelb =
  {
    name = "UMELB";
    bottleneck_bps = 10e6;
    one_way_delay = 0.175;
    (* Small buffer against a large BDP: overflow episodes drop several
       packets back-to-back, reproducing the batch losses the paper
       observed on this path. *)
    queue = Scenario.Drop_tail { capacity = 50 };
    n_grid = internet_n_grid;
    comprehensive = true;
    description = "10 Mb/s access, 24 hops, ~350 ms RTT; batch losses";
  }

(* The paper's extra Internet experiment: a receiver at EPFL behind a
   56 kb/s cable-modem — a single very slow last hop with a tiny
   buffer, yielding the large, bursty loss-event rates of the Figure-10
   right panel. (We use 560 kb/s with 100-byte packets so the packet
   rate matches the 56 kb/s/1000-B original while keeping simulated
   event counts workable; the loss regime is set by the packet rate and
   buffer, both preserved.) *)
let cable_modem =
  {
    name = "CABLE";
    bottleneck_bps = 560e3;
    one_way_delay = 0.05;
    queue = Scenario.Drop_tail { capacity = 10 };
    n_grid = [ 1; 2 ];
    comprehensive = true;
    description = "EPFL cable-modem receiver: slow last hop, bursty losses";
  }

let lab_droptail ~capacity =
  {
    name = Printf.sprintf "DropTail %d" capacity;
    bottleneck_bps = 10e6;
    one_way_delay = 0.025;
    queue = Scenario.Drop_tail { capacity };
    n_grid = lab_n_grid;
    comprehensive = false;
    description =
      Printf.sprintf "lab: 10 Mb/s hub bottleneck, DropTail %d packets"
        capacity;
  }

let lab_red ~pkt =
  let u = 62500.0 /. float_of_int pkt in
  {
    name = "RED";
    bottleneck_bps = 10e6;
    one_way_delay = 0.025;
    queue =
      Scenario.Red_manual
        {
          capacity = max 4 (int_of_float (2.5 *. u));
          params = lab_red_params ~pkt;
        };
    n_grid = lab_n_grid;
    comprehensive = false;
    description = "lab: 10 Mb/s bottleneck, RED (U = 62500 B thresholds)";
  }

let internet_profiles = [ inria; kth; umass; umelb ]
let lab_profiles ~pkt =
  [ lab_droptail ~capacity:64; lab_droptail ~capacity:100; lab_red ~pkt ]

let all_profiles ~pkt = internet_profiles @ lab_profiles ~pkt @ [ cable_modem ]

(* Instantiate a scenario config for this profile and connection count. *)
let to_config ?(seed = 42) ?(duration = 300.0) ?(warmup = 50.0) ?comprehensive
    profile ~n =
  let comprehensive =
    (* Default to the paper's setting for this profile: comprehensive
       on the Internet paths, basic control in the lab. *)
    Option.value comprehensive ~default:profile.comprehensive
  in
  {
    Scenario.default_config with
    seed = seed + (17 * n);
    bottleneck_bps = profile.bottleneck_bps;
    one_way_delay = profile.one_way_delay;
    queue = profile.queue;
    n_tfrc = n;
    n_tcp = n;
    with_probe = false;
    tfrc_comprehensive = comprehensive;
    duration;
    warmup;
  }

(* The paper's Table I, rendered from the profile catalog. *)
let table_one () =
  let t =
    Table.create ~title:"Table I substitute: simulated path profiles"
      ~header:
        [ "Path"; "Bottleneck"; "RTT (ms)"; "Queue"; "Role / regime" ]
  in
  let queue_name = function
    | Scenario.Drop_tail { capacity } -> Printf.sprintf "DropTail %d" capacity
    | Scenario.Red_auto _ -> "RED (auto)"
    | Scenario.Red_manual { capacity; _ } -> Printf.sprintf "RED %d" capacity
  in
  List.fold_left
    (fun t p ->
      Table.add_row t
        [
          p.name;
          Printf.sprintf "%.0f Mb/s" (p.bottleneck_bps /. 1e6);
          Printf.sprintf "%.0f" (2000.0 *. p.one_way_delay);
          queue_name p.queue;
          p.description;
        ])
    t
    (all_profiles ~pkt:1000)
