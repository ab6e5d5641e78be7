(* Explicit ODE integration for the fluid background (Fluid): an
   embedded Dormand-Prince 5(4) pair with per-step error control and FSAL
   reuse, driving a small vector system that advances in short bursts
   between discrete packet events. *)

exception
  Step_limit_exceeded of { t : float; y : float; steps : int; what : string }

let step_limit ~t ~y ~steps what = raise (Step_limit_exceeded { t; y; steps; what })

(* ------------------------------------------------------------------ *)
(* Dormand–Prince 5(4).                                                *)
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

(* Standard step-size controller: order-5 error, safety 0.9, growth
   clamped to [0.2, 5]. *)
let next_h h err_norm =
  let factor =
    if err_norm <= 0.0 then 5.0
    else Float.min 5.0 (Float.max 0.2 (0.9 *. (err_norm ** (-0.2))))
  in
  h *. factor

let check_tols ~rtol ~atol name =
  if not (rtol > 0.0 && atol > 0.0) then
    invalid_arg (name ^ ": tolerances must be positive")

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
