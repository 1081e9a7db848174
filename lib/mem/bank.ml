(* Shared-memory bank-conflict analyzer (paper Section 4.2).

   Shared memory stores adjacent 4-byte words in adjacent banks.  A
   half-warp access where k threads hit distinct words of the same bank
   serializes into k transactions.  Threads reading the *same* word of a
   bank are served by one broadcast.  The paper notes Barra does not track
   conflicts, so it derives effective transaction counts with a separate
   tool; this module is that tool, generalized to any bank count so the
   prime-bank-count architectural proposal of Section 5.2 can be evaluated.

   Accesses wider than one word span several banks: a 64-bit access on
   GT200 touches two adjacent 4-byte words, so even a perfectly strided
   64-bit pattern costs two transactions per half-warp — every word a lane
   touches is tallied in its bank.

   The analyzers run once per shared access in the functional simulator's
   hot path, so they work on a lane address array plus an enabled-lane
   mask ({!Lanes}) and tally through a caller-owned [scratch]: an access
   allocates nothing.  The [int option array] functions at the end are
   thin wrappers for one-off callers. *)

let word_size = 4

(* [words]: the words one group touches, in lane order; [per_bank]: a
   tally per bank; [head]/[next]: per bank, a chain through [words] of the
   distinct words seen in it so far.  [per_bank] is all zero and [head]
   all [-1] between calls. *)
type scratch = {
  mutable words : int array;
  mutable next : int array;
  mutable per_bank : int array;
  mutable head : int array;
}

let scratch () = { words = [||]; next = [||]; per_bank = [||]; head = [||] }

let check_width ~who width =
  if width <= 0 then
    invalid_arg (Printf.sprintf "Bank.%s: width must be > 0" who)

let check_group ~who group =
  if group <= 0 then
    invalid_arg (Printf.sprintf "Bank.%s: group must be > 0" who)

let check_lanes ~who addrs =
  if Array.length addrs > Lanes.max then
    invalid_arg (Printf.sprintf "Bank.%s: more than %d lanes" who Lanes.max)

(* [w mod banks], without the division for the usual power-of-two bank
   counts: this runs for every word of every shared access. *)
let[@inline] bank_of ~banks w =
  if banks land (banks - 1) = 0 then w land (banks - 1) else w mod banks

let words_per_lane ~width = ((width + word_size - 1) / word_size) + 1

let reserve s ~words ~banks =
  if Array.length s.words < words then begin
    s.words <- Array.make words 0;
    s.next <- Array.make words 0
  end;
  if Array.length s.per_bank < banks then begin
    s.per_bank <- Array.make banks 0;
    s.head <- Array.make banks (-1)
  end

(* Negative addresses are rejected: OCaml's [/] and [mod] truncate toward
   zero, so [-1 / 4 = 0] would silently tally the access in word 0 of
   bank 0 instead of failing like the interpreter's shared-memory check
   does.  The group walkers below note a negative address and raise once
   their loop is done and the scratch is clean again — no call inside the
   per-lane loop. *)
let negative_address () = invalid_arg "Bank: negative address"

(* Conflict degree of one access group [start, start+len): the maximum,
   over banks, of the number of *distinct* words the enabled lanes address
   in that bank (0 when no lane is enabled).  Each lane tallies the words
   [addr/4 .. (addr+width-1)/4] it touches; a word counts at its first
   occurrence only — the broadcast.

   A first pass settles the two common shapes without tallying: every
   lane reading one address (a broadcast: its consecutive words are the
   distinct ones), and every lane touching one word in a bank no other
   lane touches (conflict-free: degree 1).  Anything else walks, per word,
   the chain of words already counted in its bank. *)
let conflict_degree_group s ~width ~banks addrs mask start len =
  (* [common]: the address all enabled lanes read so far, -1 before the
     first, -2 once they differ or one is negative; [spread]: no two lanes
     share a bank so far ([seen] holds the banks touched) *)
  let common = ref (-1) and spread = ref (banks <= Lanes.max) and seen = ref 0 in
  for i = start to start + len - 1 do
    if mask land (1 lsl i) <> 0 then begin
      let a = addrs.(i) in
      if a < 0 then begin
        common := -2;
        spread := false
      end
      else begin
        if !common = -1 then common := a else if !common <> a then common := -2;
        if !spread then
          if (a land (word_size - 1)) + width > word_size then spread := false
          else begin
            let bit = 1 lsl bank_of ~banks (a / word_size) in
            if !seen land bit <> 0 then spread := false
            else seen := !seen lor bit
          end
      end
    end
  done;
  match !common with
  | -1 -> 0
  | -2 when !spread -> 1
  | -2 ->
    let words = s.words and next = s.next in
    let per_bank = s.per_bank and head = s.head in
    let best = ref 0 and distinct = ref 0 and negative = ref false in
    for i = start to start + len - 1 do
      if mask land (1 lsl i) <> 0 then begin
        let addr = addrs.(i) in
        if addr < 0 then negative := true
        else
          for w = addr / word_size to (addr + width - 1) / word_size do
            let b = bank_of ~banks w in
            let j = ref head.(b) in
            while !j >= 0 && words.(!j) <> w do
              j := next.(!j)
            done;
            if !j < 0 then begin
              let k = !distinct in
              words.(k) <- w;
              next.(k) <- head.(b);
              head.(b) <- k;
              distinct := k + 1;
              let c = per_bank.(b) + 1 in
              per_bank.(b) <- c;
              if c > !best then best := c
            end
          done
      end
    done;
    for k = 0 to !distinct - 1 do
      let b = bank_of ~banks words.(k) in
      per_bank.(b) <- 0;
      head.(b) <- -1
    done;
    if !negative then negative_address ();
    !best
  | addr ->
    let words = ((addr + width - 1) / word_size) - (addr / word_size) + 1 in
    (words + banks - 1) / banks

(* --- Atomic serialization (DESIGN §15) --------------------------------

   An atomic read-modify-write cannot be served by broadcast: two lanes
   hitting the *same* word must still serialize, because each one's read
   must observe the previous one's write.  So where the conflict degree
   counts distinct words per bank, the atomic degree counts every access
   per bank *with multiplicity* — the maximum over banks of the total
   lane-word accesses landing there is how many back-to-back shared-memory
   cycles the group occupies. *)
let atomic_degree_group s ~width ~banks addrs mask start len =
  let per_bank = s.per_bank in
  let best = ref 0 and negative = ref false in
  for i = start to start + len - 1 do
    if mask land (1 lsl i) <> 0 then begin
      let addr = addrs.(i) in
      if addr < 0 then negative := true
      else
        for w = addr / word_size to (addr + width - 1) / word_size do
          let b = bank_of ~banks w in
          let c = per_bank.(b) + 1 in
          per_bank.(b) <- c;
          if c > !best then best := c
        done
    end
  done;
  Array.fill per_bank 0 (Array.length per_bank) 0;
  if !negative then negative_address ();
  !best

(* Sum [degree] over the warp's access groups of [group] lanes (half-warps
   on real hardware). *)
let sum_groups ~who degree s ~width ~banks ~group addrs mask =
  if banks <= 0 then invalid_arg (Printf.sprintf "Bank.%s: banks must be > 0" who);
  check_width ~who width;
  check_group ~who group;
  check_lanes ~who addrs;
  let n = Array.length addrs in
  reserve s ~words:(min group n * words_per_lane ~width) ~banks;
  let acc = ref 0 and start = ref 0 in
  while !start < n do
    let len = min group (n - !start) in
    acc := !acc + degree s ~width ~banks addrs mask !start len;
    start := !start + group
  done;
  !acc

(* The effective transaction count the performance model charges against
   shared-memory bandwidth. *)
let warp_transactions_masked s ~width ~banks ~group addrs ~mask =
  sum_groups ~who:"warp_transactions" conflict_degree_group s ~width ~banks
    ~group addrs mask

(* What the model charges the atomic component for this access. *)
let warp_atomic_transactions_masked s ~width ~banks ~group addrs ~mask =
  sum_groups ~who:"warp_atomic_transactions" atomic_degree_group s ~width
    ~banks ~group addrs mask

(* Conflict-free transaction count for the same access: the widest active
   lane's word count per group with at least one active lane (a multi-word
   access needs that many transactions even without conflicts). *)
let ideal_warp_transactions_masked ~width ~group addrs ~mask =
  check_group ~who:"ideal_warp_transactions" group;
  check_width ~who:"ideal_warp_transactions" width;
  check_lanes ~who:"ideal_warp_transactions" addrs;
  let n = Array.length addrs in
  let acc = ref 0 and start = ref 0 in
  while !start < n do
    let widest = ref 0 in
    for i = !start to min n (!start + group) - 1 do
      if mask land (1 lsl i) <> 0 then begin
        let a = addrs.(i) in
        let words = ((a + width - 1) / word_size) - (a / word_size) + 1 in
        if words > !widest then widest := words
      end
    done;
    acc := !acc + !widest;
    start := !start + group
  done;
  !acc

(* Groups of [group] lanes with at least one lane enabled: the
   contention-free floor of an atomic access — the count a conflict-free,
   fully diverged-address atomic would achieve — and the conflict-free
   count of any access whose lanes each touch one word. *)
let active_groups ~group ~lanes ~mask =
  check_group ~who:"active_groups" group;
  let acc = ref 0 and start = ref 0 in
  while !start < lanes do
    let len = min group (lanes - !start) in
    if mask land Lanes.range_mask !start len <> 0 then incr acc;
    start := !start + group
  done;
  !acc

(* --- [int option array] wrappers --------------------------------------- *)

let whole_group ~who degree ?(width = word_size) ~banks addresses =
  let addrs, mask = Lanes.of_options addresses in
  let group = max 1 (Array.length addrs) in
  sum_groups ~who degree (scratch ()) ~width ~banks ~group addrs mask

let conflict_degree ?width ~banks addresses =
  whole_group ~who:"conflict_degree" conflict_degree_group ?width ~banks
    addresses

let atomic_transactions ?width ~banks addresses =
  whole_group ~who:"atomic_degree" atomic_degree_group ?width ~banks
    addresses

let warp_transactions ?(width = word_size) ~banks ~group addresses =
  let addrs, mask = Lanes.of_options addresses in
  warp_transactions_masked (scratch ()) ~width ~banks ~group addrs ~mask

let warp_atomic_transactions ?(width = word_size) ~banks ~group addresses =
  let addrs, mask = Lanes.of_options addresses in
  warp_atomic_transactions_masked (scratch ()) ~width ~banks ~group addrs
    ~mask

let ideal_warp_transactions ?(width = word_size) ~group addresses =
  let addrs, mask = Lanes.of_options addresses in
  ideal_warp_transactions_masked ~width ~group addrs ~mask

let ideal_warp_atomic_transactions ~group addresses =
  let _, mask = Lanes.of_options addresses in
  active_groups ~group ~lanes:(Array.length addresses) ~mask
