(* Numerical integration. Adaptive Simpson is used to cross-check the
   closed-form comprehensive-control durations of Proposition 3 and to
   compute time averages of rate trajectories. *)

let simpson_step a b fa fm fb =
  (b -. a) /. 6.0 *. (fa +. (4.0 *. fm) +. fb)

(* Recursion depth limit of the adaptive bisection. *)
let max_depth = 50

let adaptive_simpson ?(tol = 1e-10) f ~lo ~hi =
  if not (lo <= hi) then invalid_arg "Quadrature.adaptive_simpson: lo > hi";
  if lo = hi then 0.0
  else begin
    let rec go a b fa fm fb whole depth =
      let m = 0.5 *. (a +. b) in
      let lm = 0.5 *. (a +. m) and rm = 0.5 *. (m +. b) in
      let flm = f lm and frm = f rm in
      let left = simpson_step a m fa flm fm in
      let right = simpson_step m b fm frm fb in
      let delta = left +. right -. whole in
      if depth <= 0 || abs_float delta <= 15.0 *. tol then
        left +. right +. (delta /. 15.0)
      else
        go a m fa flm fm left (depth - 1)
        +. go m b fm frm fb right (depth - 1)
    in
    let fa = f lo and fb = f hi and fm = f (0.5 *. (lo +. hi)) in
    go lo hi fa fm fb (simpson_step lo hi fa fm fb) max_depth
  end

let trapezoid f ~lo ~hi ~steps =
  if steps < 1 then invalid_arg "Quadrature.trapezoid: steps must be >= 1";
  let h = (hi -. lo) /. float_of_int steps in
  let acc = ref (0.5 *. (f lo +. f hi)) in
  for i = 1 to steps - 1 do
    acc := !acc +. f (lo +. (float_of_int i *. h))
  done;
  !acc *. h
