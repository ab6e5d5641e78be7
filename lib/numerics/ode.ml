(* Explicit ODE integration. The comprehensive control's within-interval
   send-rate growth obeys d theta/dt = f(1/(w1*theta + W)) (Eq. 16 of the
   paper); for functions f without a closed-form solution we integrate it
   numerically.

   Two engines are provided:

   - classic fixed-step RK4 ([integrate], [time_to_reach]), the test
     oracle for the adaptive engine;
   - an embedded Dormand–Prince 5(4) pair ([integrate_adaptive],
     [time_to_reach_adaptive]) with per-step error control, FSAL reuse,
     cubic-Hermite dense output, and a root-finding threshold-crossing
     solve. At the default tolerances it needs orders of magnitude fewer
     derivative evaluations than RK4 at step 1e-3 for the same accuracy. *)

exception
  Step_limit_exceeded of { t : float; y : float; steps : int; what : string }

let step_limit ~t ~y ~steps what = raise (Step_limit_exceeded { t; y; steps; what })

let rk4_step f t y h =
  let k1 = f t y in
  let k2 = f (t +. (h /. 2.0)) (y +. (h /. 2.0 *. k1)) in
  let k3 = f (t +. (h /. 2.0)) (y +. (h /. 2.0 *. k2)) in
  let k4 = f (t +. h) (y +. (h *. k3)) in
  y +. (h /. 6.0 *. (k1 +. (2.0 *. k2) +. (2.0 *. k3) +. k4))

let integrate ?(steps = 1000) f ~t0 ~t1 ~y0 =
  if steps < 1 then invalid_arg "Ode.integrate: steps must be >= 1";
  if not (t0 <= t1) then invalid_arg "Ode.integrate: t0 > t1";
  let h = (t1 -. t0) /. float_of_int steps in
  let y = ref y0 in
  for i = 0 to steps - 1 do
    let t = t0 +. (float_of_int i *. h) in
    y := rk4_step f t !y h
  done;
  !y

(* Integrate dy/dt = f(t, y) from y0 until y reaches [target] (f must be
   positive so y is increasing); returns the elapsed time. Used to solve
   theta(Tn + Sn-) = theta_n for the inter-loss duration Sn. *)
let time_to_reach ?(step = 1e-3) ?(max_steps = 10_000_000) f ~y0 ~target =
  if target <= y0 then 0.0
  else begin
    let t = ref 0.0 and y = ref y0 and n = ref 0 in
    while !y < target && !n < max_steps do
      let y' = rk4_step f !t !y step in
      if y' >= target then begin
        (* Linear interpolation inside the final step for accuracy. *)
        let frac = (target -. !y) /. (y' -. !y) in
        t := !t +. (frac *. step);
        y := target
      end
      else begin
        t := !t +. step;
        y := y'
      end;
      incr n
    done;
    if !n >= max_steps then
      step_limit ~t:!t ~y:!y ~steps:!n "Ode.time_to_reach";
    !t
  end

(* ------------------------------------------------------------------ *)
(* Adaptive Dormand–Prince 5(4).                                       *)
(* ------------------------------------------------------------------ *)

type stats = { accepted : int; rejected : int; evals : int }

let default_rtol = 1e-6
let default_atol = 1e-9

(* Butcher tableau of DOPRI5. The 5th-order weights double as the a7j
   row (FSAL): k7 = f(t + h, y5) is next step's k1. *)
let a21 = 1.0 /. 5.0

let a31 = 3.0 /. 40.0
let a32 = 9.0 /. 40.0

let a41 = 44.0 /. 45.0
let a42 = -56.0 /. 15.0
let a43 = 32.0 /. 9.0

let a51 = 19372.0 /. 6561.0
let a52 = -25360.0 /. 2187.0
let a53 = 64448.0 /. 6561.0
let a54 = -212.0 /. 729.0

let a61 = 9017.0 /. 3168.0
let a62 = -355.0 /. 33.0
let a63 = 46732.0 /. 5247.0
let a64 = 49.0 /. 176.0
let a65 = -5103.0 /. 18656.0

let b1 = 35.0 /. 384.0
let b3 = 500.0 /. 1113.0
let b4 = 125.0 /. 192.0
let b5 = -2187.0 /. 6784.0
let b6 = 11.0 /. 84.0

(* Error weights: e_j = b_j - b*_j where b* is the embedded 4th-order
   solution; the error estimate is h * sum e_j k_j. *)
let e1 = b1 -. (5179.0 /. 57600.0)
let e3 = b3 -. (7571.0 /. 16695.0)
let e4 = b4 -. (393.0 /. 640.0)
let e5 = b5 -. (-92097.0 /. 339200.0)
let e6 = b6 -. (187.0 /. 2100.0)
let e7 = -1.0 /. 40.0

let c2 = 1.0 /. 5.0
let c3 = 3.0 /. 10.0
let c4 = 4.0 /. 5.0
let c5 = 8.0 /. 9.0

(* One trial step from (t, y) with slope k1 = f t y already known.
   Returns (y5, err, k7). *)
let dopri5_try f t y h k1 =
  let k2 = f (t +. (c2 *. h)) (y +. (h *. a21 *. k1)) in
  let k3 = f (t +. (c3 *. h)) (y +. (h *. ((a31 *. k1) +. (a32 *. k2)))) in
  let k4 =
    f (t +. (c4 *. h))
      (y +. (h *. ((a41 *. k1) +. (a42 *. k2) +. (a43 *. k3))))
  in
  let k5 =
    f (t +. (c5 *. h))
      (y
      +. (h *. ((a51 *. k1) +. (a52 *. k2) +. (a53 *. k3) +. (a54 *. k4))))
  in
  let k6 =
    f (t +. h)
      (y
      +. (h
         *. ((a61 *. k1) +. (a62 *. k2) +. (a63 *. k3) +. (a64 *. k4)
            +. (a65 *. k5))))
  in
  let y5 =
    y
    +. (h *. ((b1 *. k1) +. (b3 *. k3) +. (b4 *. k4) +. (b5 *. k5) +. (b6 *. k6)))
  in
  let k7 = f (t +. h) y5 in
  let err =
    h
    *. ((e1 *. k1) +. (e3 *. k3) +. (e4 *. k4) +. (e5 *. k5) +. (e6 *. k6)
       +. (e7 *. k7))
  in
  (y5, err, k7)

(* Standard step-size controller: order-5 error, safety 0.9, growth
   clamped to [0.2, 5]. *)
let next_h h err_norm =
  let factor =
    if err_norm <= 0.0 then 5.0
    else Float.min 5.0 (Float.max 0.2 (0.9 *. (err_norm ** (-0.2))))
  in
  h *. factor

(* Cubic Hermite interpolant over an accepted step [t, t+h] with end
   values (y0, y1) and end slopes (f0, f1); theta in [0, 1]. Its error
   is O(h^4), below the O(h^5) local error the controller maintains. *)
let hermite ~y0 ~y1 ~f0 ~f1 ~h theta =
  let d = y1 -. y0 in
  let c2_ = (3.0 *. d) -. (h *. ((2.0 *. f0) +. f1)) in
  let c3_ = (-2.0 *. d) +. (h *. (f0 +. f1)) in
  y0 +. (theta *. ((h *. f0) +. (theta *. (c2_ +. (theta *. c3_)))))

let check_tols ~rtol ~atol name =
  if not (rtol > 0.0 && atol > 0.0) then
    invalid_arg (name ^ ": tolerances must be positive")

(* Drive the adaptive stepper from (t0, y0). [stop] inspects each
   accepted step (t, y, h, y5, k1, k7) and returns [Some result] to
   finish early; [limit_t] caps integration time. Returns the state at
   [limit_t] if reached first. *)
let adaptive_loop ~rtol ~atol ~h0 ~max_steps ~limit_t ~stop f ~t0 ~y0 =
  let t = ref t0 and y = ref y0 in
  let k1 = ref (f t0 y0) in
  let h = ref h0 in
  let accepted = ref 0 and rejected = ref 0 and evals = ref 1 in
  let result = ref None in
  (try
     while !result = None && !t < limit_t do
       if !accepted + !rejected >= max_steps then
         step_limit ~t:!t ~y:!y ~steps:(!accepted + !rejected)
           "Ode adaptive: step budget exhausted";
       if not (Float.is_finite !t && Float.is_finite !h && !h > 0.0) then
         step_limit ~t:!t ~y:!y ~steps:(!accepted + !rejected)
           "Ode adaptive: step size underflow/overflow";
       (* A vanishing derivative lets the controller quintuple h forever
          (e.g. a non-convergent time_to_reach target): cap the horizon. *)
       if limit_t = infinity && !t >= 1e150 then
         step_limit ~t:!t ~y:!y ~steps:(!accepted + !rejected)
           "Ode adaptive: target not reached before t = 1e150";
       let h_clamped = Float.min !h (limit_t -. !t) in
       let h_try = if h_clamped > 0.0 then h_clamped else !h in
       let y5, err, k7 = dopri5_try f !t !y h_try !k1 in
       evals := !evals + 6;
       let scale = atol +. (rtol *. Float.max (Float.abs !y) (Float.abs y5)) in
       let err_norm = Float.abs err /. scale in
       if err_norm <= 1.0 then begin
         incr accepted;
         (match stop ~t:!t ~y:!y ~h:h_try ~y5 ~f0:!k1 ~f1:k7 with
         | Some r -> result := Some r
         | None ->
             t := !t +. h_try;
             y := y5;
             k1 := k7;
             h := next_h h_try err_norm)
       end
       else begin
         incr rejected;
         h := next_h h_try err_norm
       end
     done
   with Step_limit_exceeded _ as e ->
     (* Re-raise with the loop's own bookkeeping already in the payload. *)
     raise e);
  let st = { accepted = !accepted; rejected = !rejected; evals = !evals } in
  match !result with Some r -> (r, st) | None -> (!y, st)

let default_h0 ~span = Float.max 1e-12 (1e-2 *. span)

let integrate_adaptive_stats ?(rtol = default_rtol) ?(atol = default_atol)
    ?h0 ?(max_steps = 100_000) f ~t0 ~t1 ~y0 =
  check_tols ~rtol ~atol "Ode.integrate_adaptive";
  if not (t0 <= t1) then invalid_arg "Ode.integrate_adaptive: t0 > t1";
  if t0 = t1 then (y0, { accepted = 0; rejected = 0; evals = 0 })
  else begin
    let h0 = match h0 with Some h -> h | None -> default_h0 ~span:(t1 -. t0) in
    adaptive_loop ~rtol ~atol ~h0 ~max_steps ~limit_t:t1
      ~stop:(fun ~t:_ ~y:_ ~h:_ ~y5:_ ~f0:_ ~f1:_ -> None)
      f ~t0 ~y0
  end

let integrate_adaptive ?rtol ?atol ?h0 ?max_steps f ~t0 ~t1 ~y0 =
  fst (integrate_adaptive_stats ?rtol ?atol ?h0 ?max_steps f ~t0 ~t1 ~y0)

(* Adaptive threshold crossing: step until an accepted step brackets
   [target], then polish the crossing on the dense-output polynomial
   with Brent. f must be positive (y increasing). *)
let time_to_reach_adaptive_stats ?(rtol = default_rtol)
    ?(atol = default_atol) ?h0 ?(max_steps = 100_000) f ~y0 ~target =
  check_tols ~rtol ~atol "Ode.time_to_reach_adaptive";
  if target <= y0 then (0.0, { accepted = 0; rejected = 0; evals = 0 })
  else begin
    let h0 =
      match h0 with
      | Some h -> h
      | None ->
          let f0 = f 0.0 y0 in
          if f0 > 0.0 then Float.max 1e-12 (1e-2 *. ((target -. y0) /. f0))
          else 1.0
    in
    let stop ~t ~y ~h ~y5 ~f0 ~f1 =
      if y5 < target then None
      else begin
        (* The crossing lies inside [t, t + h]: find theta with
           H(theta) = target on the Hermite interpolant. H(0) < target
           <= H(1) up to interpolation error; fall back to the linear
           estimate if rounding breaks the bracket. *)
        let g theta = hermite ~y0:y ~y1:y5 ~f0 ~f1 ~h theta -. target in
        let theta =
          match Roots.brent ~tol:1e-15 g ~lo:0.0 ~hi:1.0 with
          | theta -> theta
          | exception Roots.No_bracket _ -> (target -. y) /. (y5 -. y)
        in
        Some (t +. (theta *. h))
      end
    in
    adaptive_loop ~rtol ~atol ~h0 ~max_steps ~limit_t:infinity ~stop f ~t0:0.0
      ~y0
  end

let time_to_reach_adaptive ?rtol ?atol ?h0 ?max_steps f ~y0 ~target =
  fst (time_to_reach_adaptive_stats ?rtol ?atol ?h0 ?max_steps f ~y0 ~target)

(* ------------------------------------------------------------------ *)
(* Resumable vector systems.                                          *)
(* ------------------------------------------------------------------ *)

module System = struct
  type deriv = float -> floatarray -> floatarray -> unit

  (* All stage arrays are preallocated at [create]; a steady-state
     [advance] allocates nothing. [y]/[y5] and [k1]/[k7] are mutable
     fields so an accepted step is two pointer swaps (FSAL: k7 of the
     accepted step is next step's k1). *)
  type t = {
    f : deriv;
    dim : int;
    rtol : float;
    atol : float;
    mutable t : float;
    mutable y : floatarray;
    mutable y5 : floatarray;
    ytmp : floatarray;
    mutable k1 : floatarray;
    k2 : floatarray;
    k3 : floatarray;
    k4 : floatarray;
    k5 : floatarray;
    k6 : floatarray;
    mutable k7 : floatarray;
    mutable h : float;
    mutable fsal : bool;
    mutable accepted : int;
    mutable rejected : int;
    mutable evals : int;
  }

  let fget = Float.Array.unsafe_get
  let fset = Float.Array.unsafe_set

  let create ?(rtol = default_rtol) ?(atol = default_atol) ?h0 ~f ~t0 ~y0 ()
      =
    check_tols ~rtol ~atol "Ode.System.create";
    let dim = Float.Array.length y0 in
    if dim = 0 then invalid_arg "Ode.System.create: empty state";
    if not (Float.is_finite t0) then
      invalid_arg "Ode.System.create: non-finite t0";
    let mk () = Float.Array.make dim 0.0 in
    {
      f;
      dim;
      rtol;
      atol;
      t = t0;
      y = Float.Array.copy y0;
      y5 = mk ();
      ytmp = mk ();
      k1 = mk ();
      k2 = mk ();
      k3 = mk ();
      k4 = mk ();
      k5 = mk ();
      k6 = mk ();
      k7 = mk ();
      h = (match h0 with Some h -> h | None -> 0.0);
      fsal = false;
      accepted = 0;
      rejected = 0;
      evals = 0;
    }

  let time st = st.t
  let dim st = st.dim
  let value st i = Float.Array.get st.y i
  let invalidate st = st.fsal <- false

  let set st i v =
    if Float.Array.get st.y i <> v then begin
      Float.Array.set st.y i v;
      st.fsal <- false
    end

  let stats st =
    { accepted = st.accepted; rejected = st.rejected; evals = st.evals }

  (* One trial step of size [h] from (st.t, st.y) with k1 valid. Fills
     y5/k2..k7 and returns the scaled max-norm error estimate. *)
  let trial st h =
    let n = st.dim and y = st.y and tm = st.ytmp in
    let k1 = st.k1
    and k2 = st.k2
    and k3 = st.k3
    and k4 = st.k4
    and k5 = st.k5
    and k6 = st.k6
    and k7 = st.k7
    and y5 = st.y5 in
    for i = 0 to n - 1 do
      fset tm i (fget y i +. (h *. a21 *. fget k1 i))
    done;
    st.f (st.t +. (c2 *. h)) tm k2;
    for i = 0 to n - 1 do
      fset tm i
        (fget y i +. (h *. ((a31 *. fget k1 i) +. (a32 *. fget k2 i))))
    done;
    st.f (st.t +. (c3 *. h)) tm k3;
    for i = 0 to n - 1 do
      fset tm i
        (fget y i
        +. (h
           *. ((a41 *. fget k1 i) +. (a42 *. fget k2 i) +. (a43 *. fget k3 i))
           ))
    done;
    st.f (st.t +. (c4 *. h)) tm k4;
    for i = 0 to n - 1 do
      fset tm i
        (fget y i
        +. (h
           *. ((a51 *. fget k1 i) +. (a52 *. fget k2 i) +. (a53 *. fget k3 i)
              +. (a54 *. fget k4 i))))
    done;
    st.f (st.t +. (c5 *. h)) tm k5;
    for i = 0 to n - 1 do
      fset tm i
        (fget y i
        +. (h
           *. ((a61 *. fget k1 i) +. (a62 *. fget k2 i) +. (a63 *. fget k3 i)
              +. (a64 *. fget k4 i) +. (a65 *. fget k5 i))))
    done;
    st.f (st.t +. h) tm k6;
    for i = 0 to n - 1 do
      fset y5 i
        (fget y i
        +. (h
           *. ((b1 *. fget k1 i) +. (b3 *. fget k3 i) +. (b4 *. fget k4 i)
              +. (b5 *. fget k5 i) +. (b6 *. fget k6 i))))
    done;
    st.f (st.t +. h) y5 k7;
    st.evals <- st.evals + 6;
    let en = ref 0.0 in
    for i = 0 to n - 1 do
      let err =
        h
        *. ((e1 *. fget k1 i) +. (e3 *. fget k3 i) +. (e4 *. fget k4 i)
           +. (e5 *. fget k5 i) +. (e6 *. fget k6 i) +. (e7 *. fget k7 i))
      in
      let scale =
        st.atol
        +. (st.rtol *. Float.max (Float.abs (fget y i)) (Float.abs (fget y5 i)))
      in
      let v = Float.abs err /. scale in
      if v > !en then en := v
    done;
    !en

  let advance ?(max_steps = 100_000) st target =
    if not (Float.is_finite target) then
      invalid_arg "Ode.System.advance: non-finite target";
    if target < st.t then invalid_arg "Ode.System.advance: target in the past";
    if target > st.t then begin
      if not st.fsal then begin
        st.f st.t st.y st.k1;
        st.evals <- st.evals + 1;
        st.fsal <- true
      end;
      if not (st.h > 0.0 && Float.is_finite st.h) then
        st.h <- Float.max 1e-12 (1e-2 *. (target -. st.t));
      let steps = ref 0 in
      while st.t < target do
        if !steps >= max_steps then
          step_limit ~t:st.t ~y:(Float.Array.get st.y 0) ~steps:!steps
            "Ode.System.advance: step budget exhausted";
        if not (Float.is_finite st.h && st.h > 0.0) then
          step_limit ~t:st.t ~y:(Float.Array.get st.y 0) ~steps:!steps
            "Ode.System.advance: step size underflow/overflow";
        incr steps;
        let remaining = target -. st.t in
        let clamped = st.h >= remaining in
        let h_try = if clamped then remaining else st.h in
        let err_norm = trial st h_try in
        if err_norm <= 1.0 then begin
          st.accepted <- st.accepted + 1;
          st.t <- (if clamped then target else st.t +. h_try);
          let y = st.y in
          st.y <- st.y5;
          st.y5 <- y;
          let k = st.k1 in
          st.k1 <- st.k7;
          st.k7 <- k;
          (* When the step was clamped to land on [target], keep the
             established (larger) h for the next advance. *)
          if clamped then st.h <- Float.max st.h (next_h h_try err_norm)
          else st.h <- next_h h_try err_norm
        end
        else begin
          st.rejected <- st.rejected + 1;
          st.h <- next_h h_try err_norm
        end
      done
    end
end
