(* Streaming covariance accumulator for paired observations, used to
   estimate the paper's covariance conditions (C1): cov[theta_0, thetahat_0]
   and (C2): cov[X_0, S_0] without storing trajectories. *)

type t = {
  mutable n : int;
  mutable mean_x : float;
  mutable mean_y : float;
  mutable c : float;        (* sum of cross deviations *)
}

let create () =
  { n = 0; mean_x = 0.0; mean_y = 0.0; c = 0.0 }

let reset t =
  t.n <- 0; t.mean_x <- 0.0; t.mean_y <- 0.0; t.c <- 0.0

let add t x y =
  t.n <- t.n + 1;
  let n = float_of_int t.n in
  let dx = x -. t.mean_x in
  let dy = y -. t.mean_y in
  t.mean_x <- t.mean_x +. (dx /. n);
  t.mean_y <- t.mean_y +. (dy /. n);
  (* Note: uses the updated mean_y, per the standard online update. *)
  t.c <- t.c +. (dx *. (y -. t.mean_y))

let count t = t.n

let covariance t =
  if t.n < 2 then 0.0 else t.c /. float_of_int (t.n - 1)
