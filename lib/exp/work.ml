(* Declared experiment work. A figure runner does not run anything: it
   returns a tree whose leaves are scenario configs and seeded thunks,
   combined by [map], [list] and [both]. [run] takes a batch of such
   trees, gathers every leaf, runs each distinct one once in a single
   crash-isolated pool job, then projects each tree from its leaves'
   results on the calling domain.

   Two scenario leaves with the same [Codec.encode] bytes (the result
   store's key) are one leaf of the batch, whichever figures declared
   them. This is the only in-process cache: [figure], [report] and
   [validate] each run one batch, so none simulates a config twice.
   Every leaf is self-contained (its own seed, no shared mutable
   state), so the projected values are identical for every [jobs]. *)

module Pool = Ebrc_parallel.Pool

type _ t =
  | Scenario : Scenario.config -> Scenario.result t
  | Task : (unit -> 'a) -> 'a t
  | Map : ('a -> 'b) * 'a t -> 'b t
  | List : 'a t list -> 'a list t
  | Both : 'a t * 'b t -> ('a * 'b) t

let scenario cfg = Scenario cfg
let task f = Task f
let map f w = Map (f, w)
let list ws = List ws
let both a b = Both (a, b)

type error = {
  owners : string list;
  leaf : string;
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}

type leaf = {
  name : string;
  cost : float;
  exec : unit -> unit;
  mutable owners : string list;  (* newest first *)
  mutable error : Pool.task_error option;
}

type batch = {
  mutable leaves : leaf list;  (* newest first *)
  scenarios : (string, leaf * Scenario.result option ref) Hashtbl.t;
}

(* Raised by a projection that reads a failed leaf. *)
exception Leaf_failed of leaf

(* A scenario's cost is the packets its bottleneck can carry over the
   run; a task's is unknown and taken as small. Leaves run longest
   first, so the batch ends on cheap leaves rather than a long tail. *)
let scenario_cost (cfg : Scenario.config) =
  cfg.duration *. cfg.bottleneck_bps /. float_of_int (8 * cfg.packet_size)

let add_leaf b ~owner ~name ~cost exec =
  let l = { name; cost; exec; owners = [ owner ]; error = None } in
  b.leaves <- l :: b.leaves;
  l

(* A leaf's cell is filled iff the leaf succeeded. *)
let read l cell () =
  match !cell with Some v -> v | None -> raise (Leaf_failed l)

(* Register [w]'s leaves in [b] and return its projection, to be
   called once the batch has run. [tasks] numbers the owner's task
   leaves for failure reports. *)
let rec compile : type a. batch -> owner:string -> int ref -> a t -> unit -> a
    =
 fun b ~owner tasks w ->
  match w with
  | Scenario cfg ->
      let key = Codec.encode cfg in
      let l, cell =
        match Hashtbl.find_opt b.scenarios key with
        | Some ((l, _) as shared) ->
            if not (List.mem owner l.owners) then l.owners <- owner :: l.owners;
            shared
        | None ->
            let cell = ref None in
            let l =
              add_leaf b ~owner
                ~name:("scenario " ^ Result_cache.digest_of_config cfg)
                ~cost:(scenario_cost cfg)
                (fun () -> cell := Some (Result_cache.run cfg))
            in
            Hashtbl.replace b.scenarios key (l, cell);
            (l, cell)
      in
      read l cell
  | Task f ->
      incr tasks;
      let cell = ref None in
      let l =
        add_leaf b ~owner ~name:(Printf.sprintf "task #%d" !tasks) ~cost:0.0
          (fun () -> cell := Some (f ()))
      in
      read l cell
  | Map (f, w) ->
      let r = compile b ~owner tasks w in
      fun () -> f (r ())
  | List ws ->
      let rs = List.map (compile b ~owner tasks) ws in
      fun () -> List.map (fun r -> r ()) rs
  | Both (x, y) ->
      let rx = compile b ~owner tasks x in
      let ry = compile b ~owner tasks y in
      fun () ->
        let vx = rx () in
        (vx, ry ())

let rec configs : type a. a t -> Scenario.config list = function
  | Scenario cfg -> [ cfg ]
  | Task _ -> []
  | Map (_, w) -> configs w
  | List ws -> List.concat_map configs ws
  | Both (x, y) -> configs x @ configs y

let run ?(jobs = 1) works =
  let b = { leaves = []; scenarios = Hashtbl.create 64 } in
  let projections =
    List.map (fun (owner, w) -> (owner, compile b ~owner (ref 0) w)) works
  in
  let leaves = Array.of_list (List.rev b.leaves) in
  Array.stable_sort (fun x y -> Float.compare y.cost x.cost) leaves;
  Pool.try_init (Pool.shared ~domains:jobs ()) (Array.length leaves)
    (fun k -> leaves.(k).exec ())
  |> Array.iteri (fun k -> function
       | Ok () -> ()
       | Error e -> leaves.(k).error <- Some e);
  List.map
    (fun (owner, project) ->
      ( owner,
        match project () with
        | v -> Ok v
        | exception Leaf_failed l ->
            let e = Option.get l.error in
            Error
              { owners = List.rev l.owners; leaf = l.name; exn = e.t_exn;
                backtrace = e.t_backtrace }
        | exception exn ->
            let backtrace = Printexc.get_raw_backtrace () in
            Error { owners = [ owner ]; leaf = "projection"; exn; backtrace } ))
    projections
