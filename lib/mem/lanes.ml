(* A warp access as an address array plus an enabled-lane bit mask: the
   allocation-free form every memory analyzer works on. *)

let max = Sys.int_size - 1

let range_mask start len = ((1 lsl len) - 1) lsl start

let popcount m =
  let rec go m n = if m = 0 then n else go (m land (m - 1)) (n + 1) in
  go m 0

let of_options a =
  let n = Array.length a in
  if n > max then
    invalid_arg (Printf.sprintf "Lanes.of_options: %d lanes, at most %d" n max);
  let addrs = Array.make n 0 and mask = ref 0 in
  Array.iteri
    (fun i -> function
      | Some x ->
        addrs.(i) <- x;
        mask := !mask lor (1 lsl i)
      | None -> ())
    a;
  (addrs, !mask)
