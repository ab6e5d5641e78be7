(* Tests for the deterministic PRNG and the distribution generators:
   determinism, stream independence, and moment checks against the
   analytic values used by the paper's designed experiments. *)

module Prng = Ebrc.Prng
module Dist = Ebrc.Dist
module D = Ebrc.Descriptive

let feq ?(eps = 1e-9) a b =
  Alcotest.(check bool)
    (Printf.sprintf "%.12g ~ %.12g" a b)
    true
    (abs_float (a -. b) <= eps *. (1.0 +. abs_float a +. abs_float b))

let close ?(tol = 0.05) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.5g within %g%% of %.5g" name actual (tol *. 100.0)
       expected)
    true
    (abs_float (actual -. expected) <= tol *. (abs_float expected +. 1e-9))

let raises_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let sample rng n f = Array.init n (fun _ -> f rng)

(* --------------------------- Prng ------------------------------ *)

let test_determinism () =
  let a = Prng.create ~seed:123 and b = Prng.create ~seed:123 in
  for _ = 1 to 100 do
    feq (Prng.float_unit a) (Prng.float_unit b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let xa = Array.init 10 (fun _ -> Prng.float_unit a) in
  let xb = Array.init 10 (fun _ -> Prng.float_unit b) in
  Alcotest.(check bool) "different streams" true (xa <> xb)

let test_float_unit_range () =
  let rng = Prng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let u = Prng.float_unit rng in
    Alcotest.(check bool) "in [0,1)" true (u >= 0.0 && u < 1.0)
  done

let test_float_unit_positive () =
  let rng = Prng.create ~seed:7 in
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "positive" true (Prng.float_unit_positive rng > 0.0)
  done

let test_uniformity () =
  let rng = Prng.create ~seed:99 in
  let xs = sample rng 100_000 Prng.float_unit in
  close ~tol:0.01 "mean" 0.5 (D.mean xs);
  close ~tol:0.02 "variance" (1.0 /. 12.0) (D.variance xs)

let test_split_independence () =
  let parent = Prng.create ~seed:5 in
  let child1 = Prng.split parent in
  let child2 = Prng.split parent in
  let x1 = sample child1 1000 Prng.float_unit in
  let x2 = sample child2 1000 Prng.float_unit in
  Alcotest.(check bool) "streams differ" true (x1 <> x2);
  Alcotest.(check bool) "low correlation" true
    (abs_float (D.correlation x1 x2) < 0.1)

let test_copy_replays () =
  let a = Prng.create ~seed:11 in
  ignore (Prng.float_unit a);
  let b = Prng.copy a in
  feq (Prng.float_unit a) (Prng.float_unit b)

let test_int_bounds () =
  let rng = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10)
  done;
  raises_invalid "bound 0" (fun () -> Prng.int rng 0)

(* ------------------------ Prng.stream -------------------------- *)

let test_stream_reproducible () =
  (* stream is a pure function of (root, index): re-deriving the same
     stream replays the same draws, independent of any other stream's
     consumption — the property the parallel sweeps rely on. *)
  let a = Prng.stream ~root:42 7 in
  ignore (sample (Prng.stream ~root:42 3) 1000 Prng.float_unit);
  let b = Prng.stream ~root:42 7 in
  for _ = 1 to 1000 do
    feq (Prng.float_unit a) (Prng.float_unit b)
  done

let test_stream_distinct () =
  let draws root i = sample (Prng.stream ~root i) 100 Prng.float_unit in
  Alcotest.(check bool) "indices differ" true (draws 1 0 <> draws 1 1);
  Alcotest.(check bool) "roots differ" true (draws 1 0 <> draws 2 0)

let test_stream_negative_index () =
  raises_invalid "negative index" (fun () -> Prng.stream ~root:1 (-1))

(* splitmix64 advances its state by exactly [gamma] per draw, so two
   streams overlap within a window of W draws iff their phase distance
   k = (s_b - s_a) * gamma^{-1} (mod 2^64) satisfies k <= W or
   k >= 2^64 - W. gamma is odd, hence invertible mod 2^64; Newton
   iteration x <- x (2 - g x) doubles correct low bits per step. *)
let gamma_inverse =
  let g = Prng.gamma in
  let x = ref g in
  for _ = 1 to 6 do
    x := Int64.mul !x (Int64.sub 2L (Int64.mul g !x))
  done;
  !x

let test_gamma_inverse () =
  feq (Int64.to_float (Int64.mul Prng.gamma gamma_inverse)) 1.0

let test_stream_no_overlap () =
  let window = 1_000_000L in
  let limit = Int64.sub 0L window in   (* 2^64 - W as unsigned *)
  let indices = [ 0; 1; 2; 3; 7; 50; 1023; 65536 ] in
  let states =
    List.map (fun i -> (i, Prng.state_bits (Prng.stream ~root:911 i))) indices
  in
  List.iter
    (fun (i, si) ->
      List.iter
        (fun (j, sj) ->
          if i < j then begin
            let k = Int64.mul (Int64.sub sj si) gamma_inverse in
            let far =
              Int64.unsigned_compare k window > 0
              && Int64.unsigned_compare k limit < 0
            in
            Alcotest.(check bool)
              (Printf.sprintf "streams %d and %d disjoint on 1e6 draws" i j)
              true far
          end)
        states)
    states

let test_stream_cross_correlation () =
  let x0 = sample (Prng.stream ~root:5 0) 2000 Prng.float_unit in
  let x1 = sample (Prng.stream ~root:5 1) 2000 Prng.float_unit in
  Alcotest.(check bool) "low correlation" true
    (abs_float (D.correlation x0 x1) < 0.08);
  close ~tol:0.05 "mean stream 0" 0.5 (D.mean x0);
  close ~tol:0.05 "mean stream 1" 0.5 (D.mean x1)

let test_bool_balanced () =
  let rng = Prng.create ~seed:4 in
  let trues = ref 0 in
  for _ = 1 to 10_000 do
    if Prng.bool rng then incr trues
  done;
  close ~tol:0.05 "bool fraction" 0.5 (float_of_int !trues /. 10_000.0)

(* ------------------------ Distributions ------------------------ *)

let test_exponential_moments () =
  let rng = Prng.create ~seed:21 in
  let xs = sample rng 200_000 (fun r -> Dist.exponential r ~rate:2.0) in
  close ~tol:0.02 "mean" 0.5 (D.mean xs);
  close ~tol:0.03 "variance" 0.25 (D.variance xs)

let test_exponential_invalid () =
  raises_invalid "rate" (fun () ->
      Dist.exponential (Prng.create ~seed:1) ~rate:0.0)

let test_shifted_exponential_moments () =
  let rng = Prng.create ~seed:22 in
  let x0 = 2.0 and a = 0.5 in
  let xs = sample rng 200_000 (fun r -> Dist.shifted_exponential r ~x0 ~a) in
  close ~tol:0.02 "mean" (x0 +. (1.0 /. a)) (D.mean xs);
  Alcotest.(check bool) "support" true (D.minimum xs >= x0);
  (* skewness 2, excess kurtosis 6 regardless of (x0, a) — the paper's
     "higher-order statistics remain intact" remark. *)
  close ~tol:0.10 "skewness" 2.0 (D.skewness xs);
  close ~tol:0.25 "kurtosis" 6.0 (D.kurtosis_excess xs)

let test_shifted_exponential_params () =
  let mean = 50.0 and cv = 0.7 in
  let x0, a = Dist.shifted_exponential_params ~mean ~cv in
  feq (x0 +. (1.0 /. a)) mean;
  (* cv = sd/mean = (1/a)/mean for the shifted exponential. *)
  feq ((1.0 /. a) /. mean) cv

let test_shifted_exponential_params_cv1 () =
  (* cv = 1 degenerates to a pure exponential: x0 = 0. *)
  let x0, a = Dist.shifted_exponential_params ~mean:10.0 ~cv:1.0 in
  feq x0 0.0;
  feq (1.0 /. a) 10.0

let test_shifted_exponential_params_invalid () =
  raises_invalid "cv too big" (fun () ->
      Dist.shifted_exponential_params ~mean:1.0 ~cv:1.5);
  raises_invalid "mean" (fun () ->
      Dist.shifted_exponential_params ~mean:0.0 ~cv:0.5)

let test_bernoulli_frequency () =
  let rng = Prng.create ~seed:23 in
  let hits = ref 0 in
  for _ = 1 to 100_000 do
    if Dist.bernoulli rng ~p:0.3 then incr hits
  done;
  close ~tol:0.02 "p" 0.3 (float_of_int !hits /. 100_000.0)

let test_bernoulli_degenerate () =
  let rng = Prng.create ~seed:1 in
  Alcotest.(check bool) "p=0 never" false (Dist.bernoulli rng ~p:0.0);
  Alcotest.(check bool) "p=1 always" true (Dist.bernoulli rng ~p:1.0)

let test_geometric_moments () =
  let rng = Prng.create ~seed:24 in
  let p = 0.25 in
  let xs =
    sample rng 100_000 (fun r -> float_of_int (Dist.geometric r ~p))
  in
  close ~tol:0.03 "mean" ((1.0 -. p) /. p) (D.mean xs);
  feq (float_of_int (Dist.geometric rng ~p:1.0)) 0.0

let test_normal_moments () =
  let rng = Prng.create ~seed:25 in
  let xs =
    sample rng 200_000 (fun r -> Dist.normal r ~mean:3.0 ~stddev:2.0)
  in
  close ~tol:0.02 "mean" 3.0 (D.mean xs);
  close ~tol:0.03 "variance" 4.0 (D.variance xs);
  Alcotest.(check bool) "skew small" true (abs_float (D.skewness xs) < 0.05)

let test_pareto_support_and_mean () =
  let rng = Prng.create ~seed:26 in
  let shape = 3.0 and scale = 2.0 in
  let xs = sample rng 200_000 (fun r -> Dist.pareto r ~shape ~scale) in
  Alcotest.(check bool) "support" true (D.minimum xs >= scale);
  close ~tol:0.03 "mean" (shape *. scale /. (shape -. 1.0)) (D.mean xs)

let test_poisson_small_mean () =
  let rng = Prng.create ~seed:27 in
  let xs = sample rng 100_000 (fun r -> float_of_int (Dist.poisson r ~mean:3.5)) in
  close ~tol:0.02 "mean" 3.5 (D.mean xs);
  close ~tol:0.04 "variance" 3.5 (D.variance xs)

let test_poisson_large_mean () =
  let rng = Prng.create ~seed:28 in
  let xs =
    sample rng 50_000 (fun r -> float_of_int (Dist.poisson r ~mean:200.0))
  in
  close ~tol:0.01 "mean" 200.0 (D.mean xs);
  close ~tol:0.06 "variance" 200.0 (D.variance xs)

let test_poisson_zero () =
  Alcotest.(check int) "mean 0" 0 (Dist.poisson (Prng.create ~seed:1) ~mean:0.0)

(* ------------------------- properties -------------------------- *)

let prop_exponential_positive =
  QCheck.Test.make ~name:"exponential variates are positive" ~count:500
    QCheck.(pair small_nat (float_range 0.01 100.0))
    (fun (seed, rate) ->
      let rng = Prng.create ~seed in
      Dist.exponential rng ~rate > 0.0)

let prop_shifted_exp_support =
  QCheck.Test.make ~name:"shifted exponential respects x0" ~count:500
    QCheck.(triple small_nat (float_range 0.0 50.0) (float_range 0.01 10.0))
    (fun (seed, x0, a) ->
      let rng = Prng.create ~seed in
      Dist.shifted_exponential rng ~x0 ~a >= x0)

let prop_params_roundtrip =
  QCheck.Test.make ~name:"shifted-exp params roundtrip mean and cv" ~count:500
    QCheck.(pair (float_range 0.1 1000.0) (float_range 0.01 1.0))
    (fun (mean, cv) ->
      let x0, a = Dist.shifted_exponential_params ~mean ~cv in
      let mean' = x0 +. (1.0 /. a) in
      let cv' = 1.0 /. a /. mean' in
      abs_float (mean' -. mean) <= 1e-9 *. mean
      && abs_float (cv' -. cv) <= 1e-9)

let prop_prng_unit_interval =
  QCheck.Test.make ~name:"float_unit stays in [0,1)" ~count:1000
    QCheck.small_nat (fun seed ->
      let rng = Prng.create ~seed in
      let u = Prng.float_unit rng in
      u >= 0.0 && u < 1.0)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_exponential_positive;
      prop_shifted_exp_support;
      prop_params_roundtrip;
      prop_prng_unit_interval;
    ]

let () =
  Alcotest.run "rng"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "float_unit range" `Quick test_float_unit_range;
          Alcotest.test_case "float_unit_positive" `Quick test_float_unit_positive;
          Alcotest.test_case "uniform moments" `Quick test_uniformity;
          Alcotest.test_case "split independence" `Quick test_split_independence;
          Alcotest.test_case "copy replays" `Quick test_copy_replays;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "bool balance" `Quick test_bool_balanced;
        ] );
      ( "stream",
        [
          Alcotest.test_case "reproducible" `Quick test_stream_reproducible;
          Alcotest.test_case "distinct" `Quick test_stream_distinct;
          Alcotest.test_case "negative index" `Quick test_stream_negative_index;
          Alcotest.test_case "gamma inverse" `Quick test_gamma_inverse;
          Alcotest.test_case "no overlap in 1e6 draws" `Quick
            test_stream_no_overlap;
          Alcotest.test_case "cross-correlation" `Quick
            test_stream_cross_correlation;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "exponential moments" `Quick test_exponential_moments;
          Alcotest.test_case "exponential invalid" `Quick test_exponential_invalid;
          Alcotest.test_case "shifted-exp moments" `Quick test_shifted_exponential_moments;
          Alcotest.test_case "shifted-exp params" `Quick test_shifted_exponential_params;
          Alcotest.test_case "shifted-exp cv=1" `Quick test_shifted_exponential_params_cv1;
          Alcotest.test_case "shifted-exp params invalid" `Quick test_shifted_exponential_params_invalid;
          Alcotest.test_case "bernoulli frequency" `Quick test_bernoulli_frequency;
          Alcotest.test_case "bernoulli degenerate" `Quick test_bernoulli_degenerate;
          Alcotest.test_case "geometric moments" `Quick test_geometric_moments;
          Alcotest.test_case "normal moments" `Quick test_normal_moments;
          Alcotest.test_case "pareto" `Quick test_pareto_support_and_mean;
          Alcotest.test_case "poisson small mean" `Quick test_poisson_small_mean;
          Alcotest.test_case "poisson large mean" `Quick test_poisson_large_mean;
          Alcotest.test_case "poisson zero" `Quick test_poisson_zero;
        ] );
      ("properties", qsuite);
    ]
