(* Memory-transaction simulator implementing the CUDA compute-capability
   1.2/1.3 coalescing protocol (paper Section 4.3):

     1. find the segment containing the address requested by the lowest
        numbered active thread;
     2. find all other threads whose requested address is in that segment;
     3. reduce the segment size if possible;
     4. repeat until all threads of the issue group are served.

   The issue group is a half-warp (16 threads) on real hardware; the paper's
   Figure 10 example uses 2 threads and an 8-byte segment, and its Figure 11
   what-if sweeps segment granularities of 32, 16 and 4 bytes, so all three
   parameters are configurable.

   The protocol runs once per global access in the functional simulator's
   hot path, so it works on a lane address array plus an enabled-lane mask
   ({!Lanes}) and writes into a reusable [txns] buffer; the
   [int option array] / [txn list] functions wrap it. *)

type txn = { base : int; size : int }

type config = {
  group : int; (* threads per transaction issue (half-warp = 16) *)
  min_segment : int; (* smallest transaction, bytes *)
  max_segment : int; (* initial segment size, bytes *)
}

let config_of_spec (spec : Gpu_hw.Spec.t) =
  {
    group = spec.coalesce_threads;
    min_segment = spec.min_segment_bytes;
    max_segment = spec.max_segment_bytes;
  }

let check_config c =
  let power_of_two n = n > 0 && n land (n - 1) = 0 in
  if not (power_of_two c.min_segment && power_of_two c.max_segment) then
    invalid_arg "Coalesce: segment sizes must be powers of two";
  if c.min_segment > c.max_segment then
    invalid_arg "Coalesce: min_segment > max_segment";
  if c.group <= 0 then invalid_arg "Coalesce: group must be positive"

(* The transactions serving one access, in service order: a growable
   buffer the caller reuses across accesses. *)
type txns = {
  mutable count : int;
  mutable bases : int array;
  mutable sizes : int array;
}

let txns () = { count = 0; bases = Array.make 32 0; sizes = Array.make 32 0 }

let push out base size =
  if out.count = Array.length out.bases then begin
    let grow a =
      let b = Array.make (2 * Array.length a) 0 in
      Array.blit a 0 b 0 out.count;
      b
    in
    out.bases <- grow out.bases;
    out.sizes <- grow out.sizes
  end;
  out.bases.(out.count) <- base;
  out.sizes.(out.count) <- size;
  out.count <- out.count + 1

let misaligned () =
  invalid_arg "Coalesce.group_transactions: addresses must be width-aligned"

(* Serve the enabled lanes of the issue group [start, start+len),
   appending the transactions to [out] in service order.  Every lane is
   visited by the scan that serves it, which also checks it: [align] is
   [width - 1] for the power-of-two widths every interpreter access has
   (a lane is misaligned when it has any of those bits), and 0 when the
   caller has checked alignment already. *)
let serve_group c ~width ~align addrs mask ~start ~len out =
  let seg = c.max_segment in
  let pending = ref (mask land Lanes.range_mask start len)
  and leader = ref start and bad = ref false in
  while !pending <> 0 do
    (* Step 1: the max_segment-aligned segment holding the lowest-numbered
       unserved lane. *)
    while !pending land (1 lsl !leader) = 0 do
      incr leader
    done;
    let base = addrs.(!leader) land lnot (seg - 1) in
    let last = base + seg - width in
    (* Step 2: which unserved lanes fall entirely inside it. *)
    let lo = ref max_int and hi = ref 0 and served = ref 0 in
    for i = !leader to start + len - 1 do
      if !pending land (1 lsl i) <> 0 then begin
        let a = addrs.(i) in
        if a < 0 || a land align <> 0 then bad := true;
        if a >= base && a <= last then begin
          if a < !lo then lo := a;
          if a > !hi then hi := a;
          served := !served lor (1 lsl i)
        end
      end
    done;
    (* a misaligned lane rejects the whole access *)
    if !bad then pending := 0
    else begin
      (* Step 3: shrink while all members fit in one half. *)
      let hi = !hi + width in
      let tbase = ref base and tsize = ref seg and shrinking = ref true in
      while !shrinking && !tsize / 2 >= c.min_segment do
        let half = !tsize / 2 in
        if hi <= !tbase + half then tsize := half
        else if !lo >= !tbase + half then begin
          tbase := !tbase + half;
          tsize := half
        end
        else shrinking := false
      done;
      push out !tbase !tsize;
      pending := !pending land lnot !served
    end
  done;
  if !bad then misaligned ()

(* Serve a full warp: split into issue groups of [c.group] lanes.  [out]
   is cleared first. *)
let warp_transactions_masked c ~width out addrs ~mask =
  check_config c;
  if width > c.max_segment then
    invalid_arg "Coalesce.group_transactions: access wider than a segment";
  if Array.length addrs > Lanes.max then
    invalid_arg "Coalesce: too many lanes for a mask";
  let align =
    if width land (width - 1) = 0 then width - 1
    else begin
      for i = 0 to Array.length addrs - 1 do
        if mask land (1 lsl i) <> 0 && (addrs.(i) < 0 || addrs.(i) mod width <> 0)
        then misaligned ()
      done;
      0
    end
  in
  out.count <- 0;
  let n = Array.length addrs in
  let start = ref 0 in
  while !start < n do
    let len = min c.group (n - !start) in
    serve_group c ~width ~align addrs mask ~start:!start ~len out;
    start := !start + c.group
  done

let to_list out =
  List.init out.count (fun i -> { base = out.bases.(i); size = out.sizes.(i) })

(* Serve one issue group.  [addresses.(i) = Some a] is the byte address
   requested by thread [i]; [None] marks an inactive thread.  [width] is the
   access width in bytes.  Returns transactions in service order. *)
let group_transactions c ~width addresses =
  check_config c;
  if Array.length addresses > c.group then
    invalid_arg "Coalesce.group_transactions: more threads than group size";
  let addrs, mask = Lanes.of_options addresses in
  let out = txns () in
  warp_transactions_masked c ~width out addrs ~mask;
  to_list out

let warp_transactions c ~width addresses =
  let addrs, mask = Lanes.of_options addresses in
  let out = txns () in
  warp_transactions_masked c ~width out addrs ~mask;
  to_list out

let bytes txns = List.fold_left (fun acc t -> acc + t.size) 0 txns

let count = List.length

(* Fraction of transferred bytes actually requested: 1.0 means perfectly
   coalesced traffic. *)
let efficiency ~width addresses txns =
  let requested =
    Array.fold_left
      (fun acc a -> match a with Some _ -> acc + width | None -> acc)
      0 addresses
  in
  let transferred = bytes txns in
  if transferred = 0 then 1.0
  else float_of_int requested /. float_of_int transferred

let pp_txn ppf t = Fmt.pf ppf "[%#x..%#x)" t.base (t.base + t.size)
