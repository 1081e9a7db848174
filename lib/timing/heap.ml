(* Minimal binary min-heap of [int] payloads keyed by integer time: the
   event queue of the timing engine, whose payloads are warp ids.

   Keys and payloads live in two [int] arrays, so nothing on the add/pop
   path allocates or writes a pointer: [pop] returns the bare payload
   (the caller reads the key first with [min_key]), and both sifts move
   a hole instead of swapping slots, writing the moving entry once at
   its final position.  The comparisons are the strict [<] of a
   swap-based sift with the left child preferred on ties, so the slot
   layout, and with it the order in which equal keys pop, is that of the
   textbook heap. *)

type t = {
  mutable keys : int array;
  mutable data : int array;
  mutable size : int;
}

let create () =
  { keys = Array.make 64 0; data = Array.make 64 0; size = 0 }

let is_empty t = t.size = 0

(* The root key.  Undefined (not an error) on an empty heap: the engine's
   coalescing test is [is_empty || key < min_key], which never reads the
   root of an empty heap. *)
let min_key t = t.keys.(0)

let grow t =
  let n = Array.length t.keys in
  let keys = Array.make (2 * n) 0 in
  let data = Array.make (2 * n) 0 in
  Array.blit t.keys 0 keys 0 n;
  Array.blit t.data 0 data 0 n;
  t.keys <- keys;
  t.data <- data

(* Place [key, v] at hole [i] or above it: parents with a strictly larger
   key move down into the hole. *)
let rec sift_up t i key v =
  let parent = (i - 1) / 2 in
  if i > 0 && key < t.keys.(parent) then begin
    t.keys.(i) <- t.keys.(parent);
    t.data.(i) <- t.data.(parent);
    sift_up t parent key v
  end
  else begin
    t.keys.(i) <- key;
    t.data.(i) <- v
  end

(* Place [key, v] at hole [i] or below it: the smaller child moves up
   while its key is strictly below [key], the right child counting as
   smaller only when strictly below the left one.  That is the choice a
   swap-based sift makes, with the child selection computed from a
   comparison value rather than a branch. *)
let rec sift_down t i key v =
  let l = (2 * i) + 1 in
  let keys = t.keys in
  if l < t.size then begin
    let r = l + 1 in
    let c = if r < t.size then l + Bool.to_int (keys.(r) < keys.(l)) else l in
    if keys.(c) < key then begin
      keys.(i) <- keys.(c);
      t.data.(i) <- t.data.(c);
      sift_down t c key v
    end
    else begin
      keys.(i) <- key;
      t.data.(i) <- v
    end
  end
  else begin
    keys.(i) <- key;
    t.data.(i) <- v
  end

let add t ~key v =
  if t.size = Array.length t.keys then grow t;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) key v

let pop t =
  if t.size = 0 then invalid_arg "Heap.pop: empty heap";
  let v = t.data.(0) in
  let last = t.size - 1 in
  t.size <- last;
  let key = t.keys.(last) and moving = t.data.(last) in
  if last > 0 then sift_down t 0 key moving;
  v
