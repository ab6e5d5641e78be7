(* Open-addressing set of sequence numbers (non-negative ints).

   Replaces [(int, unit) Hashtbl.t] on the TCP per-packet paths: the
   generic hashtable pays a [caml_hash] C call per probe and a
   polymorphic-compare C call per key test, which together were a
   measurable slice of a scenario run. Here membership is a linear
   probe over a flat int array — sequence numbers arrive nearly
   consecutively, so the identity hash distributes perfectly and
   probes almost never collide.

   Deletion is backward-shift (Knuth's Algorithm R): the entries after
   a removed key that probed past its slot move back into the hole, so
   no dead entry is left for a later probe to walk (consecutive keys
   would leave whole runs of tombstones). The table grows when live
   entries pass half the capacity, so an empty slot always ends a
   walk. Capacities are powers of two. *)

let empty_key = min_int

type t = {
  mutable slots : int array;
  mutable mask : int;
  mutable live : int;
}

let create ?(capacity = 64) () =
  let cap = ref 16 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  { slots = Array.make !cap empty_key; mask = !cap - 1; live = 0 }

let cardinal t = t.live

(* Probe until [seq] or an empty slot. *)
let rec find_from slots mask seq i =
  let k = Array.unsafe_get slots i in
  if k = seq || k = empty_key then i
  else find_from slots mask seq ((i + 1) land mask)

let mem t seq = t.slots.(find_from t.slots t.mask seq (seq land t.mask)) = seq

let grow t =
  let cap = 2 * (t.mask + 1) in
  let slots = Array.make cap empty_key in
  let mask = cap - 1 in
  Array.iter
    (fun k ->
      if k <> empty_key then
        Array.unsafe_set slots (find_from slots mask k (k land mask)) k)
    t.slots;
  t.slots <- slots;
  t.mask <- mask

let add t seq =
  if seq < 0 then invalid_arg "Seq_set.add: negative sequence number";
  if 2 * (t.live + 1) > t.mask + 1 then grow t;
  let i = find_from t.slots t.mask seq (seq land t.mask) in
  if t.slots.(i) <> seq then begin
    t.slots.(i) <- seq;
    t.live <- t.live + 1
  end

(* Fill the hole at [hole], scanning on from [j]: an entry whose home
   slot lies cyclically in (hole, j] is still reachable from its home
   and stays; any other entry probed past the hole and moves back into
   it, leaving the hole at its old slot. The first empty slot ends the
   run. *)
let rec shift_back slots mask hole j =
  let k = Array.unsafe_get slots j in
  if k = empty_key then Array.unsafe_set slots hole empty_key
  else
    let home = k land mask in
    let stays =
      if hole <= j then hole < home && home <= j else hole < home || home <= j
    in
    if stays then shift_back slots mask hole ((j + 1) land mask)
    else begin
      Array.unsafe_set slots hole k;
      shift_back slots mask j ((j + 1) land mask)
    end

let remove t seq =
  let i = find_from t.slots t.mask seq (seq land t.mask) in
  if t.slots.(i) = seq then begin
    shift_back t.slots t.mask i ((i + 1) land t.mask);
    t.live <- t.live - 1
  end
