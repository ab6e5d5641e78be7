(* Tests for Ebrc_parallel.Pool: sequential equivalence across pool
   sizes, exception propagation, pool reuse, and the end-to-end
   determinism contract (figure tables identical at jobs=1 and
   jobs=4). *)

module Pool = Ebrc.Pool

let check_int_list = Alcotest.(check (list int))
let check_float_array = Alcotest.(check (array (float 1e-12)))

(* ----------------- sequential equivalence ----------------------- *)

let collatz_len n =
  let rec go steps n = if n <= 1 then steps else go (steps + 1) (if n mod 2 = 0 then n / 2 else (3 * n) + 1) in
  go 0 n

let test_init_matches_sequential () =
  (* Uneven integer work and float results, at 1, 2 and 8 domains. *)
  let f i = sin (float_of_int i) +. float_of_int (collatz_len (i + 1)) in
  let expected = Array.init 257 f in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          check_float_array
            (Printf.sprintf "init at %d domains" domains)
            expected (Pool.init pool 257 f)))
    [ 1; 2; 8 ]

let test_init () =
  let expected = Array.init 64 (fun i -> i * i) in
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check (array int))
        "init" expected
        (Pool.init pool 64 (fun i -> i * i)))

let test_empty_and_singleton () =
  Pool.with_pool ~domains:3 (fun pool ->
      check_int_list "empty" [] (Array.to_list (Pool.init pool 0 succ));
      check_int_list "singleton" [ 1 ] (Array.to_list (Pool.init pool 1 succ)))

(* ------------------- exception propagation ---------------------- *)

exception Boom of int

let test_exception_propagates () =
  Pool.with_pool ~domains:4 (fun pool ->
      let err =
        try
          ignore (Pool.init pool 100 (fun i -> if i = 37 then raise (Boom i) else i));
          None
        with Pool.Task_failed e -> Some e
      in
      (match err with
      | None -> Alcotest.fail "expected Task_failed"
      | Some e ->
          Alcotest.(check int) "failing task index" 37 e.Pool.t_index;
          Alcotest.(check int) "single attempt" 1 e.Pool.t_attempts;
          Alcotest.(check bool) "original exception preserved" true
            (e.Pool.t_exn = Boom 37));
      (* the pool survives a failed job *)
      check_int_list "usable after exception" [ 1; 2; 3 ]
        (Array.to_list (Pool.init pool 3 succ)))

let test_lowest_failure_wins () =
  (* Several tasks fail; the reported index must deterministically be
     the lowest one regardless of scheduling order. *)
  Pool.with_pool ~domains:4 (fun pool ->
      let err =
        try
          ignore
            (Pool.init pool 200 (fun i ->
                 if i mod 17 = 5 then raise (Boom i) else i));
          None
        with Pool.Task_failed e -> Some e
      in
      match err with
      | None -> Alcotest.fail "expected Task_failed"
      | Some e -> Alcotest.(check int) "lowest failing index" 5 e.Pool.t_index)

let test_try_init_isolates () =
  Pool.with_pool ~domains:4 (fun pool ->
      let results =
        Pool.try_init pool 50 (fun i ->
            if i mod 10 = 3 then raise (Boom i) else i * 2)
      in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v ->
              Alcotest.(check bool)
                (Printf.sprintf "task %d ok" i)
                true
                (i mod 10 <> 3 && v = 2 * i)
          | Error e ->
              Alcotest.(check bool)
                (Printf.sprintf "task %d failed" i)
                true
                (i mod 10 = 3 && e.Pool.t_index = i && e.Pool.t_exn = Boom i))
        results)

let test_retries_with_fresh_attempt () =
  (* A task that fails on its first attempt and succeeds on the second
     must be retried transparently; a task that always fails reports
     the full attempt count. Each task counts its own attempts (one
     slot per index, so no two domains share a slot). *)
  Pool.with_pool ~domains:2 (fun pool ->
      let tries = Array.make 10 0 in
      let results =
        Pool.try_init ~retries:2 pool 10 (fun i ->
            tries.(i) <- tries.(i) + 1;
            if i = 4 && tries.(i) < 2 then raise (Boom i)
            else if i = 7 then raise (Boom i)
            else tries.(i))
      in
      (match results.(4) with
      | Ok n -> Alcotest.(check int) "succeeded on retry" 2 n
      | Error _ -> Alcotest.fail "task 4 should succeed on its second attempt");
      Alcotest.(check int) "task 7 ran every attempt" 3 tries.(7);
      match results.(7) with
      | Ok _ -> Alcotest.fail "task 7 should exhaust retries"
      | Error e -> Alcotest.(check int) "attempts counted" 3 e.Pool.t_attempts)

(* ------------------------ pool reuse ----------------------------- *)

let test_pool_reuse () =
  let pool = Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for round = 1 to 5 do
        let n = 50 * round in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.init n (fun i -> i + round))
          (Pool.init pool n (fun i -> i + round))
      done)

let test_shutdown_idempotent () =
  let pool = Pool.create ~domains:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  let raised =
    try
      ignore (Pool.init pool 1 succ);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "use after shutdown raises" true raised

(* --------------- end-to-end figure determinism ------------------ *)

let figure_csv ~jobs id =
  Ebrc.Figures.run_one ~jobs ~quick:true id
  |> List.map Ebrc.Table.to_csv
  |> String.concat "\n"

let test_figure_determinism () =
  (* The acceptance bar for the parallel engine: the same figure,
     regenerated at jobs=1 and jobs=4, yields byte-identical tables. *)
  Alcotest.(check string)
    "figure 3 identical at jobs=1 and jobs=4" (figure_csv ~jobs:1 "3")
    (figure_csv ~jobs:4 "3")

let test_batch_determinism () =
  (* One multi-figure batch with no result store, covering every leaf
     kind: Monte-Carlo tasks (3, c3), audio tasks (6), scenarios (17),
     a direct-engine task (a6) and chain tasks (a9). *)
  let ids = [ "3"; "6"; "17"; "a6"; "a9"; "c3" ] in
  let batch_csv ~jobs =
    Ebrc.Figures.run ~jobs ~quick:true ids
    |> List.concat_map (function
         | _, Ok tables -> List.map Ebrc.Table.to_csv tables
         | id, Error _ -> Alcotest.failf "figure %s failed" id)
    |> String.concat "\n"
  in
  Alcotest.(check string)
    "batch identical at jobs=1 and jobs=4" (batch_csv ~jobs:1)
    (batch_csv ~jobs:4)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "init = Array.init (1/2/8 domains)" `Quick
            test_init_matches_sequential;
          Alcotest.test_case "init = Array.init" `Quick test_init;
          Alcotest.test_case "empty and singleton" `Quick
            test_empty_and_singleton;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates;
          Alcotest.test_case "lowest failure wins" `Quick
            test_lowest_failure_wins;
          Alcotest.test_case "try_init isolates crashes" `Quick
            test_try_init_isolates;
          Alcotest.test_case "retries with fresh attempt" `Quick
            test_retries_with_fresh_attempt;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_shutdown_idempotent;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "figure 3 jobs=1 vs jobs=4" `Slow
            test_figure_determinism;
          Alcotest.test_case "figure batch jobs=1 vs jobs=4" `Slow
            test_batch_determinism;
        ] );
    ]
