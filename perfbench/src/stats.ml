(* Order statistics for latency samples.  Percentiles are nearest-rank
   and given in per-mille (950 = p95) so rank arithmetic stays exact in
   integers. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: no samples"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* 1-based nearest rank of per-mille [p] among [n] samples. *)
let rank ~n p = max 1 (min n (((p * n) + 999) / 1000))

(* Samples strictly above the [p] percentile's rank. *)
let beyond ~n p = n - rank ~n p

(* A percentile is reported only with at least ten samples beyond it. *)
let min_beyond = 10
let supported ~n p = n > 0 && beyond ~n p >= min_beyond

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(rank ~n p - 1)

let tail_candidates = [ 999; 990; 950; 900; 750; 500 ]

(* The highest of [tail_candidates] that [n] samples support. *)
let tail_per_mille ~n =
  List.find_opt (fun p -> supported ~n p) tail_candidates

let per_mille_name p =
  if p mod 10 = 0 then Printf.sprintf "p%d" (p / 10)
  else Printf.sprintf "p%d.%d" (p / 10) (p mod 10)
