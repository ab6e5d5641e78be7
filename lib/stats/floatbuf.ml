(* Growable append-only float buffer: the allocation-free replacement
   for the [float Queue.t] interval logs on the simulator hot path
   (a Queue cell per sample vs amortized doubling here), with O(1)
   length and O(n) snapshot instead of a full Seq traversal. *)

type t = { mutable buf : float array; mutable len : int }

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Floatbuf.create: capacity < 1";
  { buf = Array.make capacity 0.0; len = 0 }

let length t = t.len

let add t x =
  if t.len = Array.length t.buf then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger
  end;
  t.buf.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Floatbuf.get: index out of bounds";
  t.buf.(i)

let to_array t = Array.sub t.buf 0 t.len

let sum t =
  let acc = ref 0.0 in
  for i = 0 to t.len - 1 do
    acc := !acc +. t.buf.(i)
  done;
  !acc
