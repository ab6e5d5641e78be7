(* The loss-event interval estimator (the paper's Eq. (2)):

     thetahat_n = sum_{l=1..L} w_l * theta_{n-l}

   a moving average of the last L completed loss-event intervals, plus
   the "comprehensive" instantaneous variant thetahat(t) (Eq. (4)) that
   also takes into account theta(t), the packets sent since the last
   loss event, whenever doing so increases the estimate. *)

type t = {
  weights : float array;            (* normalised, index 0 = most recent *)
  history : float array;            (* ring buffer of intervals *)
  mutable head : int;               (* slot of the most recent interval *)
  mutable filled : int;             (* number of recorded intervals *)
}

let create ~weights =
  if not (Weights.is_normalized weights) then
    invalid_arg "Loss_interval.create: weights must be normalised and positive";
  let l = Array.length weights in
  { weights; history = Array.make l 0.0; head = 0; filled = 0 }

let of_tfrc ~l = create ~weights:(Weights.tfrc l)

let window t = Array.length t.weights
let filled t = t.filled
let is_warm t = t.filled >= Array.length t.weights

(* Pre-fill the whole history, e.g. with 1/p to start an experiment at
   the stationary operating point. *)
let prime t value =
  if value <= 0.0 then invalid_arg "Loss_interval.prime: value must be positive";
  Array.fill t.history 0 (Array.length t.history) value;
  t.filled <- Array.length t.weights

let record t interval =
  if interval <= 0.0 then
    invalid_arg "Loss_interval.record: interval must be positive";
  let l = Array.length t.weights in
  t.head <- (t.head + l - 1) mod l;
  t.history.(t.head) <- interval;
  if t.filled < l then t.filled <- t.filled + 1

(* Most recent recorded interval (theta_{n-1} in paper indexing). *)
let last t =
  if t.filled = 0 then invalid_arg "Loss_interval.last: no intervals yet";
  t.history.(t.head)

let nth_back t i =
  if i < 0 || i >= t.filled then
    invalid_arg "Loss_interval.nth_back: index out of range";
  let l = Array.length t.weights in
  t.history.((t.head + i) mod l)

(* thetahat_n, the basic estimate over the full window. Before warm-up we
   renormalise over the filled prefix so early estimates stay unbiased. *)
let estimate t =
  if t.filled = 0 then invalid_arg "Loss_interval.estimate: no intervals yet";
  let l = Array.length t.weights in
  if t.filled >= l then begin
    let acc = ref 0.0 in
    for i = 0 to l - 1 do
      acc := !acc +. (t.weights.(i) *. t.history.((t.head + i) mod l))
    done;
    !acc
  end
  else begin
    let wsum = ref 0.0 and acc = ref 0.0 in
    for i = 0 to t.filled - 1 do
      wsum := !wsum +. t.weights.(i);
      acc := !acc +. (t.weights.(i) *. t.history.((t.head + i) mod l))
    done;
    !acc /. !wsum
  end

(* Partial sum W_n = sum_{l=1..L-1} w_{l+1} theta_{n-l}: the contribution
   of the older L-1 intervals when the open interval theta(t) occupies
   the newest slot (paper's comprehensive control, Eq. (4)). *)
let tail_weighted_sum t =
  if not (is_warm t) then
    invalid_arg "Loss_interval.tail_weighted_sum: estimator not warm";
  let l = Array.length t.weights in
  let acc = ref 0.0 in
  for i = 0 to l - 2 do
    (* weight w_{i+2} applied to interval theta_{n-1-i} *)
    acc := !acc +. (t.weights.(i + 1) *. t.history.((t.head + i) mod l))
  done;
  !acc

(* thetahat(t) of Eq. (4): substitute the running interval theta_t for
   the newest history slot if that increases the estimate. Before
   warm-up the candidate renormalises over the available prefix, so a
   young flow still grows its estimate during a long loss-free run —
   otherwise an isolated sender freezes below capacity forever. *)
let estimate_with_open_interval t ~open_interval =
  if open_interval < 0.0 then
    invalid_arg "Loss_interval.estimate_with_open_interval: negative interval";
  let base = estimate t in
  let l = Array.length t.weights in
  let m = min t.filled (l - 1) in
  let wsum = ref t.weights.(0) in
  let acc = ref (t.weights.(0) *. open_interval) in
  for i = 0 to m - 1 do
    wsum := !wsum +. t.weights.(i + 1);
    acc := !acc +. (t.weights.(i + 1) *. t.history.((t.head + i) mod l))
  done;
  let candidate = !acc /. !wsum in
  if candidate > base then candidate else base

(* The threshold on theta(t) above which the open interval starts raising
   the estimate — the set A_t of the paper, and the quantity
   (thetahat_n - W_n)/w_1 entering U_n. *)
let open_interval_threshold t =
  if not (is_warm t) then
    invalid_arg "Loss_interval.open_interval_threshold: estimator not warm";
  (estimate t -. tail_weighted_sum t) /. t.weights.(0)

let first_weight t = t.weights.(0)

let copy t =
  {
    weights = t.weights;
    history = Array.copy t.history;
    head = t.head;
    filled = t.filled;
  }
