(* Growable append-only float buffer: the allocation-free replacement
   for the [float Queue.t] interval logs on the simulator hot path
   (a Queue cell per sample vs amortized doubling here), with O(1)
   length. *)

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
