(** Shared-memory bank-conflict analyzer (paper Section 4.2), generalized to
    any bank count so the prime-bank proposal of Section 5.2 can be
    evaluated.  Addresses are byte addresses; [width] is the access width
    in bytes (default 4).  An access wider than one 4-byte word spans
    adjacent banks — on GT200 a 64-bit access touches two words, and both
    are tallied in their banks.

    The [_masked] functions take a warp access as a lane address array
    plus an enabled-lane mask ({!Lanes}) and allocate nothing; the
    [int option array] functions wrap them.  All raise [Invalid_argument]
    on a non-positive [banks], [width] or [group], on a negative enabled
    address, or beyond {!Lanes.max} lanes. *)

val word_size : int

(** Reusable tally space for the [_masked] analyzers.  One per domain:
    it is mutated by every call. *)
type scratch

val scratch : unit -> scratch

(** Effective transactions for a warp access, split into groups of [group]
    lanes (half-warps on real hardware): per group, the maximum over banks
    of the number of distinct words addressed in that bank. *)
val warp_transactions_masked :
  scratch -> width:int -> banks:int -> group:int -> int array -> mask:int ->
  int

(** Atomic serialization for a warp access, per group of [group] lanes and
    summed: the maximum over banks of the lane-word accesses landing in
    that bank counted {e with multiplicity} — same-word accesses cannot
    broadcast, each must observe the previous one's write. *)
val warp_atomic_transactions_masked :
  scratch -> width:int -> banks:int -> group:int -> int array -> mask:int ->
  int

(** Groups of [group] lanes, of [lanes], with at least one lane enabled
    in [mask]: the contention-free floor of an atomic access, and the
    conflict-free transaction count of an access whose enabled lanes each
    touch one word (aligned 4-byte accesses). *)
val active_groups : group:int -> lanes:int -> mask:int -> int

(** {2 [int option array] wrappers} ([None] = inactive lane) *)

(** Maximum over banks of the number of distinct words addressed in that
    bank by one access group: 1 = conflict-free, 0 = no active lane. *)
val conflict_degree : ?width:int -> banks:int -> int option array -> int

val warp_transactions :
  ?width:int -> banks:int -> group:int -> int option array -> int

(** Transactions the same access would need were it conflict-free: per
    active group, the word count of its widest active lane. *)
val ideal_warp_transactions :
  ?width:int -> group:int -> int option array -> int

(** Serialized transactions one access group of atomics needs. *)
val atomic_transactions : ?width:int -> banks:int -> int option array -> int

val warp_atomic_transactions :
  ?width:int -> banks:int -> group:int -> int option array -> int

(** {!active_groups} of an access. *)
val ideal_warp_atomic_transactions :
  group:int -> int option array -> int
