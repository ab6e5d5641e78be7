(* Unit and property tests for the ebrc_stats substrate. *)

module D = Ebrc.Descriptive
module W = Ebrc.Welford
module C = Ebrc.Cov_acc
module R = Ebrc.Resample

let feq ?(eps = 1e-9) a b =
  Alcotest.(check bool)
    (Printf.sprintf "%.12g ~ %.12g" a b)
    true
    (abs_float (a -. b) <= eps *. (1.0 +. abs_float a +. abs_float b))

let raises_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* ------------------------- Descriptive ------------------------- *)

let test_sum_kahan () =
  let xs = Array.init 10000 (fun i -> if i mod 2 = 0 then 1e10 else 1.0) in
  let expected = (5000.0 *. 1e10) +. 5000.0 in
  feq (D.sum xs) expected

let test_mean_simple () = feq (D.mean [| 1.0; 2.0; 3.0; 4.0 |]) 2.5
let test_mean_singleton () = feq (D.mean [| 42.0 |]) 42.0

let test_mean_empty () =
  raises_invalid "empty mean" (fun () -> D.mean [||])

let test_variance_known () =
  feq (D.variance [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |]) (32.0 /. 7.0)

let test_variance_constant () = feq (D.variance (Array.make 10 3.14)) 0.0
let test_variance_singleton () = feq (D.variance [| 5.0 |]) 0.0

let test_variance_population () =
  feq (D.variance_population [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |]) 4.0

let test_stddev () =
  feq (D.stddev [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |]) (sqrt (32.0 /. 7.0))

let test_cv () = feq (D.coefficient_of_variation [| 1.0; 3.0 |]) (sqrt 2.0 /. 2.0)

let test_cv_zero_mean () =
  raises_invalid "cv zero mean" (fun () ->
      D.coefficient_of_variation [| -1.0; 1.0 |])

let test_covariance_known () =
  let xs = [| 1.; 2.; 3.; 4. |] and ys = [| 2.; 4.; 6.; 8. |] in
  feq (D.covariance xs ys) (2.0 *. D.variance xs)

let test_covariance_sign () =
  Alcotest.(check bool) "negative" true
    (D.covariance [| 1.; 2.; 3.; 4. |] [| 4.; 3.; 2.; 1. |] < 0.0)

let test_covariance_mismatch () =
  raises_invalid "length mismatch" (fun () ->
      D.covariance [| 1.0 |] [| 1.0; 2.0 |])

let test_correlation_perfect () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  feq (D.correlation xs (Array.map (fun x -> (3.0 *. x) +. 1.0) xs)) 1.0;
  feq (D.correlation xs (Array.map (fun x -> -.x) xs)) (-1.0)

let test_correlation_constant () =
  feq (D.correlation [| 1.; 2.; 3. |] [| 5.; 5.; 5. |]) 0.0

let test_autocov_lag0 () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  feq (D.autocovariance xs ~lag:0) (D.variance_population xs)

let test_autocorr_alternating () =
  let xs = Array.init 100 (fun i -> if i mod 2 = 0 then 1.0 else -1.0) in
  feq ~eps:1e-6 (D.autocorrelation xs ~lag:1) (-1.0)

let test_autocov_bad_lag () =
  raises_invalid "lag out of range" (fun () ->
      D.autocovariance [| 1.0; 2.0 |] ~lag:5)

let test_skewness_symmetric () = feq (D.skewness [| 1.; 2.; 3.; 4.; 5. |]) 0.0

let test_kurtosis_two_point () =
  let xs = Array.init 100 (fun i -> if i mod 2 = 0 then 0.0 else 1.0) in
  feq ~eps:1e-6 (D.kurtosis_excess xs) (-2.0)

let test_min_max () =
  let xs = [| 3.0; -1.0; 4.0; 1.0; 5.0 |] in
  feq (D.minimum xs) (-1.0);
  feq (D.maximum xs) 5.0

let test_median_odd () = feq (D.median [| 3.; 1.; 2. |]) 2.0
let test_median_even () = feq (D.median [| 4.; 1.; 2.; 3. |]) 2.5

let test_quantile_extremes () =
  let xs = [| 10.; 20.; 30. |] in
  feq (D.quantile xs 0.0) 10.0;
  feq (D.quantile xs 1.0) 30.0

let test_quantile_interpolates () = feq (D.quantile [| 0.0; 10.0 |] 0.25) 2.5

let test_quantile_range () =
  raises_invalid "q out of range" (fun () -> D.quantile [| 1.0 |] 1.5)

let test_regression_exact () =
  let xs = [| 0.; 1.; 2.; 3. |] in
  let ys = Array.map (fun x -> (2.0 *. x) -. 1.0) xs in
  let a, b = D.linear_regression xs ys in
  feq a (-1.0);
  feq b 2.0

let test_regression_degenerate () =
  raises_invalid "degenerate x" (fun () ->
      D.linear_regression [| 1.0; 1.0 |] [| 1.0; 2.0 |])

(* --------------------------- Welford --------------------------- *)

let test_welford_matches_descriptive () =
  let xs = Array.init 1000 (fun i -> sin (float_of_int i) *. 100.0) in
  let w = W.create () in
  Array.iter (W.add w) xs;
  feq ~eps:1e-9 (W.mean w) (D.mean xs);
  feq ~eps:1e-9 (W.variance w) (D.variance xs);
  feq (W.minimum w) (D.minimum xs);
  feq (W.maximum w) (D.maximum xs);
  Alcotest.(check int) "count" 1000 (W.count w)

let test_welford_empty () =
  let w = W.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (W.mean w));
  feq (W.variance w) 0.0

let test_welford_reset () =
  let w = W.create () in
  W.add w 5.0;
  W.reset w;
  Alcotest.(check int) "count after reset" 0 (W.count w)

let test_welford_merge () =
  let xs = Array.init 100 (fun i -> float_of_int i) in
  let a = W.create () and b = W.create () and whole = W.create () in
  Array.iteri (fun i x -> W.add (if i < 40 then a else b) x) xs;
  Array.iter (W.add whole) xs;
  let m = W.merge a b in
  feq ~eps:1e-9 (W.mean m) (W.mean whole);
  feq ~eps:1e-9 (W.variance m) (W.variance whole);
  feq (W.minimum m) (W.minimum whole);
  feq (W.maximum m) (W.maximum whole)

let test_welford_merge_empty () =
  let a = W.create () and b = W.create () in
  W.add a 1.0;
  W.add a 2.0;
  feq (W.mean (W.merge a b)) 1.5;
  feq (W.mean (W.merge b a)) 1.5

let test_welford_copy () =
  let a = W.create () in
  W.add a 1.0;
  let b = W.copy a in
  W.add b 100.0;
  Alcotest.(check int) "original unchanged" 1 (W.count a);
  Alcotest.(check int) "copy grew" 2 (W.count b)

(* --------------------------- Cov_acc --------------------------- *)

let test_cov_acc_matches () =
  let xs = Array.init 500 (fun i -> cos (float_of_int i)) in
  let ys = Array.init 500 (fun i -> sin (float_of_int i *. 0.7)) in
  let c = C.create () in
  Array.iteri (fun i x -> C.add c x ys.(i)) xs;
  feq ~eps:1e-9 (C.covariance c) (D.covariance xs ys);
  Alcotest.(check int) "count" 500 (C.count c)

let test_cov_acc_small () =
  let c = C.create () in
  feq (C.covariance c) 0.0;
  C.add c 1.0 2.0;
  feq (C.covariance c) 0.0;
  C.add c 3.0 6.0;
  feq (C.covariance c) 4.0

let test_cov_acc_reset () =
  let c = C.create () in
  C.add c 1.0 2.0;
  C.reset c;
  Alcotest.(check int) "count" 0 (C.count c)

(* -------------------------- Resample --------------------------- *)

let test_jackknife_mean () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let est, se = R.jackknife ~estimator:D.mean xs in
  feq est 3.0;
  feq ~eps:1e-9 se (D.stddev xs /. sqrt 5.0)

let test_jackknife_needs_two () =
  raises_invalid "n >= 2" (fun () -> R.jackknife ~estimator:D.mean [| 1.0 |])

let test_block_estimate () =
  let xs = Array.init 60 (fun i -> float_of_int (i mod 6)) in
  let m, se = R.block_estimate ~estimator:D.mean ~blocks:6 xs in
  feq m 2.5;
  Alcotest.(check bool) "se finite" true (Float.is_finite se)

let test_block_single () =
  let m, se = R.block_estimate ~estimator:D.mean ~blocks:1 [| 1.0; 3.0 |] in
  feq m 2.0;
  feq se 0.0

(* ------------------------- properties -------------------------- *)

let arr_gen =
  QCheck.(array_of_size Gen.(int_range 2 80) (float_range (-1e3) 1e3))

let prop_variance_nonneg =
  QCheck.Test.make ~name:"variance is non-negative" ~count:200 arr_gen
    (fun xs -> D.variance xs >= 0.0)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile is monotone in q" ~count:200
    QCheck.(
      pair arr_gen (pair (float_bound_exclusive 1.0) (float_bound_exclusive 1.0)))
    (fun (xs, (q1, q2)) ->
      let lo = min q1 q2 and hi = max q1 q2 in
      D.quantile xs lo <= D.quantile xs hi +. 1e-9)

let prop_welford_matches_batch =
  QCheck.Test.make ~name:"welford matches batch" ~count:200 arr_gen (fun xs ->
      let w = W.create () in
      Array.iter (W.add w) xs;
      let scale = 1.0 +. abs_float (D.mean xs) in
      abs_float (W.mean w -. D.mean xs) <= 1e-6 *. scale
      && abs_float (W.variance w -. D.variance xs)
         <= 1e-6 *. (1.0 +. D.variance xs))

let prop_correlation_bounded =
  QCheck.Test.make ~name:"correlation in [-1,1]" ~count:200
    QCheck.(pair arr_gen arr_gen)
    (fun (xs, ys) ->
      let n = min (Array.length xs) (Array.length ys) in
      let xs = Array.sub xs 0 n and ys = Array.sub ys 0 n in
      let r = D.correlation xs ys in
      r >= -1.0 -. 1e-9 && r <= 1.0 +. 1e-9)

let prop_cov_shift_invariant =
  QCheck.Test.make ~name:"covariance is shift-invariant" ~count:200 arr_gen
    (fun xs ->
      let ys = Array.map (fun x -> x *. 0.5) xs in
      let shifted = Array.map (fun x -> x +. 1e3) xs in
      abs_float (D.covariance xs ys -. D.covariance shifted ys)
      <= 1e-5 *. (1.0 +. abs_float (D.covariance xs ys)))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_variance_nonneg;
      prop_quantile_monotone;
      prop_welford_matches_batch;
      prop_correlation_bounded;
      prop_cov_shift_invariant;
    ]

let () =
  Alcotest.run "stats"
    [
      ( "descriptive",
        [
          Alcotest.test_case "kahan sum" `Quick test_sum_kahan;
          Alcotest.test_case "mean" `Quick test_mean_simple;
          Alcotest.test_case "mean singleton" `Quick test_mean_singleton;
          Alcotest.test_case "mean empty raises" `Quick test_mean_empty;
          Alcotest.test_case "variance known" `Quick test_variance_known;
          Alcotest.test_case "variance constant" `Quick test_variance_constant;
          Alcotest.test_case "variance singleton" `Quick test_variance_singleton;
          Alcotest.test_case "population variance" `Quick test_variance_population;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "cv" `Quick test_cv;
          Alcotest.test_case "cv zero mean raises" `Quick test_cv_zero_mean;
          Alcotest.test_case "covariance known" `Quick test_covariance_known;
          Alcotest.test_case "covariance sign" `Quick test_covariance_sign;
          Alcotest.test_case "covariance mismatch raises" `Quick test_covariance_mismatch;
          Alcotest.test_case "correlation perfect" `Quick test_correlation_perfect;
          Alcotest.test_case "correlation constant" `Quick test_correlation_constant;
          Alcotest.test_case "autocov lag0" `Quick test_autocov_lag0;
          Alcotest.test_case "autocorr alternating" `Quick test_autocorr_alternating;
          Alcotest.test_case "autocov bad lag raises" `Quick test_autocov_bad_lag;
          Alcotest.test_case "skewness symmetric" `Quick test_skewness_symmetric;
          Alcotest.test_case "kurtosis two-point" `Quick test_kurtosis_two_point;
          Alcotest.test_case "min/max" `Quick test_min_max;
          Alcotest.test_case "median odd" `Quick test_median_odd;
          Alcotest.test_case "median even" `Quick test_median_even;
          Alcotest.test_case "quantile extremes" `Quick test_quantile_extremes;
          Alcotest.test_case "quantile interpolates" `Quick test_quantile_interpolates;
          Alcotest.test_case "quantile out of range raises" `Quick test_quantile_range;
          Alcotest.test_case "regression exact" `Quick test_regression_exact;
          Alcotest.test_case "regression degenerate raises" `Quick test_regression_degenerate;
        ] );
      ( "welford",
        [
          Alcotest.test_case "matches descriptive" `Quick test_welford_matches_descriptive;
          Alcotest.test_case "empty" `Quick test_welford_empty;
          Alcotest.test_case "reset" `Quick test_welford_reset;
          Alcotest.test_case "merge" `Quick test_welford_merge;
          Alcotest.test_case "merge with empty" `Quick test_welford_merge_empty;
          Alcotest.test_case "copy independent" `Quick test_welford_copy;
        ] );
      ( "cov_acc",
        [
          Alcotest.test_case "matches descriptive" `Quick test_cov_acc_matches;
          Alcotest.test_case "empty and single" `Quick test_cov_acc_small;
          Alcotest.test_case "reset" `Quick test_cov_acc_reset;
        ] );
      ( "resample",
        [
          Alcotest.test_case "jackknife mean" `Quick test_jackknife_mean;
          Alcotest.test_case "jackknife needs 2" `Quick test_jackknife_needs_two;
          Alcotest.test_case "block estimate" `Quick test_block_estimate;
          Alcotest.test_case "single block" `Quick test_block_single;
        ] );
      ("properties", qsuite);
    ]
