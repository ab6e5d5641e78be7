(* Streaming moment accumulators (Welford / Chan et al.), used by the
   discrete-event simulator where storing every sample is too costly. *)

type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;   (* sum of squared deviations *)
  mutable min : float;
  mutable max : float;
}

let create () =
  { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

let copy t =
  { n = t.n; mean = t.mean; m2 = t.m2; min = t.min; max = t.max }

let reset t =
  t.n <- 0; t.mean <- 0.0; t.m2 <- 0.0;
  t.min <- infinity; t.max <- neg_infinity

let add t x =
  let n1 = float_of_int t.n in
  t.n <- t.n + 1;
  let n = float_of_int t.n in
  let delta = x -. t.mean in
  let delta_n = delta /. n in
  t.mean <- t.mean +. delta_n;
  t.m2 <- t.m2 +. (delta *. delta_n *. n1);
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = t.n
let mean t = if t.n = 0 then nan else t.mean

let variance t =
  if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)

let coefficient_of_variation t =
  let mu = mean t in
  if mu = 0.0 || Float.is_nan mu then nan else stddev t /. mu

let minimum t = if t.n = 0 then nan else t.min
let maximum t = if t.n = 0 then nan else t.max

let merge a b =
  if a.n = 0 then copy b
  else if b.n = 0 then copy a
  else begin
    let na = float_of_int a.n and nb = float_of_int b.n in
    let n = na +. nb in
    let delta = b.mean -. a.mean in
    let t = create () in
    t.n <- a.n + b.n;
    t.mean <- a.mean +. (delta *. nb /. n);
    t.m2 <- a.m2 +. b.m2 +. (delta *. delta *. na *. nb /. n);
    t.min <- min a.min b.min;
    t.max <- max a.max b.max;
    t
  end

let pp ppf t =
  Fmt.pf ppf "n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g"
    t.n (mean t) (stddev t) (minimum t) (maximum t)
