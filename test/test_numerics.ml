(* Tests for the numerics substrate: convexity classification, convex
   closure / deviation ratio (Proposition 4 machinery), root finding,
   quadrature, and ODE integration. *)

module Cx = Ebrc.Convexity
module Roots = Ebrc.Roots
module Q = Ebrc.Quadrature
module Ode = Ebrc.Ode

let feq ?(eps = 1e-9) a b =
  Alcotest.(check bool)
    (Printf.sprintf "%.12g ~ %.12g" a b)
    true
    (abs_float (a -. b) <= eps *. (1.0 +. abs_float a +. abs_float b))

let raises_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* -------------------------- Convexity -------------------------- *)

let is_verdict =
  Alcotest.testable
    (fun ppf -> function
      | Cx.Convex -> Format.pp_print_string ppf "Convex"
      | Cx.Concave -> Format.pp_print_string ppf "Concave"
      | Cx.Neither -> Format.pp_print_string ppf "Neither")
    ( = )

let test_classify_square () =
  Alcotest.check is_verdict "x^2 convex" Cx.Convex
    (Cx.classify (fun x -> x *. x) ~lo:(-2.0) ~hi:2.0)

let test_classify_sqrt () =
  Alcotest.check is_verdict "sqrt concave" Cx.Concave
    (Cx.classify sqrt ~lo:0.1 ~hi:10.0)

let test_classify_affine () =
  Alcotest.check is_verdict "affine reports Convex" Cx.Convex
    (Cx.classify (fun x -> (3.0 *. x) +. 1.0) ~lo:0.0 ~hi:1.0)

let test_classify_sine () =
  Alcotest.check is_verdict "sine neither" Cx.Neither
    (Cx.classify sin ~lo:0.0 ~hi:6.0)

let test_is_concave_affine () =
  Alcotest.(check bool) "affine is also concave" true
    (Cx.is_concave (fun x -> 2.0 *. x) ~lo:0.0 ~hi:1.0)

let test_classify_invalid () =
  raises_invalid "samples" (fun () ->
      Cx.classify ~samples:2 Fun.id ~lo:0.0 ~hi:1.0);
  raises_invalid "bounds" (fun () -> Cx.classify Fun.id ~lo:1.0 ~hi:0.0)

let test_closure_of_convex_is_identity () =
  let f x = x *. x in
  let c = Cx.convex_closure f ~lo:(-1.0) ~hi:1.0 in
  List.iter
    (fun x -> feq ~eps:1e-4 (Cx.closure_eval c x) (f x))
    [ -0.9; -0.5; 0.0; 0.3; 0.8 ]

let test_closure_bridges_concave_bump () =
  let f x = if x < 0.5 then x else 1.0 -. x in
  let c = Cx.convex_closure ~samples:2001 f ~lo:0.0 ~hi:1.0 in
  feq ~eps:1e-3 (Cx.closure_eval c 0.5) 0.0

let test_deviation_ratio_convex_is_one () =
  feq (Cx.deviation_ratio (fun x -> exp x) ~lo:0.0 ~hi:2.0) 1.0

let test_deviation_ratio_tent () =
  let f x = 1.0 +. (if x < 0.5 then x else 1.0 -. x) in
  let r = Cx.deviation_ratio ~samples:4001 f ~lo:0.0 ~hi:1.0 in
  feq ~eps:1e-3 r 1.5

let test_deviation_ratio_pftk () =
  (* The paper's Figure 2 value with its b = 1 parameterisation. *)
  let f = Ebrc.Formula.create ~rtt:1.0 ~b:1.0 Ebrc.Formula.Pftk_standard in
  let r =
    Cx.deviation_ratio ~samples:32768 (Ebrc.Formula.g f) ~lo:3.25 ~hi:3.5
  in
  Alcotest.(check bool)
    (Printf.sprintf "r = %.5f close to 1.0026" r)
    true
    (abs_float (r -. 1.0026) < 3e-4)

(* ---------------------------- Roots ---------------------------- *)

let test_bisect_sqrt2 () =
  feq ~eps:1e-9 (Roots.bisect (fun x -> (x *. x) -. 2.0) ~lo:0.0 ~hi:2.0)
    (sqrt 2.0)

let test_brent_sqrt2 () =
  feq ~eps:1e-9 (Roots.brent (fun x -> (x *. x) -. 2.0) ~lo:0.0 ~hi:2.0)
    (sqrt 2.0)

let test_brent_transcendental () =
  feq ~eps:1e-9
    (Roots.brent (fun x -> x -. cos x) ~lo:0.0 ~hi:1.0)
    0.7390851332151607

let test_brent_endpoint_root () =
  feq (Roots.brent (fun x -> x) ~lo:0.0 ~hi:1.0) 0.0

let test_no_bracket () =
  match Roots.brent (fun x -> (x *. x) +. 1.0) ~lo:0.0 ~hi:1.0 with
  | _ -> Alcotest.fail "expected No_bracket"
  | exception Roots.No_bracket _ -> ()

let test_bracket_and_brent () =
  feq ~eps:1e-9 (Roots.bracket_and_brent log ~guess:100.0) 1.0

let test_bracket_and_brent_invalid () =
  raises_invalid "guess" (fun () -> Roots.bracket_and_brent log ~guess:0.0)

(* -------------------------- Quadrature ------------------------- *)

let test_simpson_polynomial () =
  feq (Q.adaptive_simpson (fun x -> x ** 3.0) ~lo:0.0 ~hi:2.0) 4.0

let test_simpson_exp () =
  feq ~eps:1e-9 (Q.adaptive_simpson exp ~lo:0.0 ~hi:1.0) (exp 1.0 -. 1.0)

let test_simpson_oscillatory () =
  feq ~eps:1e-8
    (Q.adaptive_simpson (fun x -> sin (10.0 *. x)) ~lo:0.0 ~hi:Float.pi)
    ((1.0 -. cos (10.0 *. Float.pi)) /. 10.0)

let test_simpson_empty_interval () =
  feq (Q.adaptive_simpson sin ~lo:1.0 ~hi:1.0) 0.0

let test_trapezoid_linear_exact () =
  (* Trapezoid is exact on affine functions even with one step:
     integral of 2x+1 over [0,4] is 20. *)
  feq (Q.trapezoid (fun x -> (2.0 *. x) +. 1.0) ~lo:0.0 ~hi:4.0 ~steps:1) 20.0

let test_trapezoid_invalid () =
  raises_invalid "steps" (fun () -> Q.trapezoid sin ~lo:0.0 ~hi:1.0 ~steps:0)

(* ----------------------------- ODE ----------------------------- *)

(* The fluid's DOPRI5 stepper on a scalar dy/dt = f(t, y): the state
   at [t1] after one [advance] from [y0] at 0, and the stepper. *)
let advance_scalar ?rtol ?atol f ~t1 ~y0 =
  let sys =
    Ode.System.create ?rtol ?atol
      ~f:(fun t y dy -> Float.Array.set dy 0 (f t (Float.Array.get y 0)))
      ~t0:0.0 ~y0:(Float.Array.make 1 y0) ()
  in
  Ode.System.advance sys t1;
  (Ode.System.value sys 0, sys)

let test_exponential_growth () =
  feq ~eps:1e-5 (fst (advance_scalar (fun _ y -> y) ~t1:1.0 ~y0:1.0)) (exp 1.0)

let test_linear_time () =
  feq ~eps:1e-8 (fst (advance_scalar (fun t _ -> t) ~t1:2.0 ~y0:1.0)) 3.0

(* Growth_quadrature.time_to_reach, the comprehensive-control oracle,
   on growth laws with known solutions. *)
let test_time_to_reach_constant_rate () =
  feq ~eps:1e-12
    (Growth_quadrature.time_to_reach (fun _ -> 5.0) ~y0:0.0 ~target:10.0)
    2.0

let test_time_to_reach_sqrt_growth () =
  (* dy/dt = 2 sqrt(y): y(t) = (t + sqrt y0)^2; from y0=1 to 9 takes 2. *)
  feq ~eps:1e-12
    (Growth_quadrature.time_to_reach
       (fun y -> 2.0 *. sqrt y)
       ~y0:1.0 ~target:9.0)
    2.0

let test_time_to_reach_already_there () =
  feq (Growth_quadrature.time_to_reach (fun _ -> 1.0) ~y0:5.0 ~target:4.0) 0.0

let test_step_budget () =
  (* A healthy trajectory, a budget too small to cover the span: the
     advance stops after exactly [max_steps] trial steps. *)
  let sys =
    Ode.System.create
      ~f:(fun _ _ dy -> Float.Array.set dy 0 1.0)
      ~t0:0.0 ~y0:(Float.Array.make 1 0.0) ()
  in
  match Ode.System.advance ~max_steps:2 sys 1.0 with
  | () -> Alcotest.fail "expected Step_limit_exceeded"
  | exception Ode.Step_limit_exceeded { t; steps; _ } ->
      Alcotest.(check int) "steps recorded" 2 steps;
      Alcotest.(check bool) "abandoned short of the target" true (t < 1.0)

let test_adaptive_exponential_growth () =
  feq ~eps:1e-8
    (fst
       (advance_scalar ~rtol:1e-10 ~atol:1e-12 (fun _ y -> y) ~t1:1.0 ~y0:1.0))
    (exp 1.0)

let test_adaptive_already_there () =
  (* Advancing to the current time takes no step and evaluates nothing. *)
  let y, sys = advance_scalar (fun _ y -> y) ~t1:0.0 ~y0:5.0 in
  feq y 5.0;
  Alcotest.(check int) "no evals" 0 (Ode.System.stats sys).Ode.evals

let test_adaptive_fewer_steps_stiffish () =
  (* A trajectory with a fast transient then a long slow tail: the
     adaptive stepper should cross it in a tiny fraction of the
     derivative evaluations a fixed 1e-3 step would need. *)
  let f t _ = (100.0 *. exp (-50.0 *. t)) +. 0.01 in
  let y, sys = advance_scalar f ~t1:800.0 ~y0:0.0 in
  feq ~eps:1e-5 y (2.0 +. 8.0);
  (* Fixed-step RK4 at 1e-3 needs 800k steps (3.2M evals) to cover the
     tail; adaptive should use a few hundred evals. *)
  let evals = (Ode.System.stats sys).Ode.evals in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive evals = %d < 10000" evals)
    true (evals < 10_000)

(* ------------------------- properties -------------------------- *)

let prop_closure_below_function =
  QCheck.Test.make ~name:"convex closure lower-bounds the function" ~count:100
    QCheck.(pair (float_range 0.2 3.0) (float_range 0.2 3.0))
    (fun (a, b) ->
      let f x = sin (a *. x) +. (b *. x *. x) +. 2.0 in
      let c = Cx.convex_closure ~samples:512 f ~lo:0.0 ~hi:2.0 in
      (* Between sample points the piecewise-linear hull can exceed f by
         the discretisation error O(h^2 |f''|); allow for it. *)
      List.for_all
        (fun i ->
          let x = float_of_int i /. 50.0 *. 2.0 in
          Cx.closure_eval c x <= f x +. 1e-4)
        (List.init 51 Fun.id))

let prop_brent_finds_root =
  QCheck.Test.make ~name:"brent residual is tiny" ~count:200
    QCheck.(float_range 0.5 50.0)
    (fun target ->
      let f x = (x *. x) -. target in
      let root = Roots.brent f ~lo:0.0 ~hi:(target +. 1.0) in
      abs_float (f root) < 1e-6 *. (1.0 +. target))

let prop_simpson_linearity =
  QCheck.Test.make ~name:"quadrature is linear" ~count:100
    QCheck.(pair (float_range (-5.0) 5.0) (float_range (-5.0) 5.0))
    (fun (a, b) ->
      let i1 =
        Q.adaptive_simpson (fun x -> (a *. sin x) +. (b *. x)) ~lo:0.0 ~hi:2.0
      in
      let i2 =
        (a *. Q.adaptive_simpson sin ~lo:0.0 ~hi:2.0)
        +. (b *. Q.adaptive_simpson Fun.id ~lo:0.0 ~hi:2.0)
      in
      abs_float (i1 -. i2) <= 1e-8 *. (1.0 +. abs_float i1))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_closure_below_function; prop_brent_finds_root; prop_simpson_linearity ]

let () =
  Alcotest.run "numerics"
    [
      ( "convexity",
        [
          Alcotest.test_case "x^2 convex" `Quick test_classify_square;
          Alcotest.test_case "sqrt concave" `Quick test_classify_sqrt;
          Alcotest.test_case "affine" `Quick test_classify_affine;
          Alcotest.test_case "sine neither" `Quick test_classify_sine;
          Alcotest.test_case "affine is concave too" `Quick test_is_concave_affine;
          Alcotest.test_case "invalid args" `Quick test_classify_invalid;
          Alcotest.test_case "closure of convex" `Quick test_closure_of_convex_is_identity;
          Alcotest.test_case "closure bridges bump" `Quick test_closure_bridges_concave_bump;
          Alcotest.test_case "deviation ratio convex" `Quick test_deviation_ratio_convex_is_one;
          Alcotest.test_case "deviation ratio tent" `Quick test_deviation_ratio_tent;
          Alcotest.test_case "deviation ratio PFTK = 1.0026" `Quick test_deviation_ratio_pftk;
        ] );
      ( "roots",
        [
          Alcotest.test_case "bisect sqrt2" `Quick test_bisect_sqrt2;
          Alcotest.test_case "brent sqrt2" `Quick test_brent_sqrt2;
          Alcotest.test_case "brent transcendental" `Quick test_brent_transcendental;
          Alcotest.test_case "endpoint root" `Quick test_brent_endpoint_root;
          Alcotest.test_case "no bracket raises" `Quick test_no_bracket;
          Alcotest.test_case "bracket widening" `Quick test_bracket_and_brent;
          Alcotest.test_case "bad guess raises" `Quick test_bracket_and_brent_invalid;
        ] );
      ( "quadrature",
        [
          Alcotest.test_case "cubic exact" `Quick test_simpson_polynomial;
          Alcotest.test_case "exp" `Quick test_simpson_exp;
          Alcotest.test_case "oscillatory" `Quick test_simpson_oscillatory;
          Alcotest.test_case "empty interval" `Quick test_simpson_empty_interval;
          Alcotest.test_case "trapezoid linear" `Quick test_trapezoid_linear_exact;
          Alcotest.test_case "trapezoid invalid" `Quick test_trapezoid_invalid;
        ] );
      ( "ode",
        [
          Alcotest.test_case "exp growth" `Quick test_exponential_growth;
          Alcotest.test_case "linear time" `Quick test_linear_time;
          Alcotest.test_case "time_to_reach constant" `Quick test_time_to_reach_constant_rate;
          Alcotest.test_case "time_to_reach sqrt" `Quick test_time_to_reach_sqrt_growth;
          Alcotest.test_case "already there" `Quick test_time_to_reach_already_there;
          Alcotest.test_case "budget exhausted" `Quick test_step_budget;
          Alcotest.test_case "adaptive exp growth" `Quick
            test_adaptive_exponential_growth;
          Alcotest.test_case "adaptive already there" `Quick
            test_adaptive_already_there;
          Alcotest.test_case "adaptive far fewer steps (stiff-ish)" `Quick
            test_adaptive_fewer_steps_stiffish;
        ] );
      ("properties", qsuite);
    ]
