(** Memory-transaction simulator: the CUDA compute-capability 1.2/1.3
    coalescing protocol of paper Section 4.3, with configurable issue-group
    size and segment granularity for the Figure 10/11 what-if studies. *)

type txn = { base : int; size : int }

type config = {
  group : int;  (** threads per transaction issue (half-warp = 16) *)
  min_segment : int;  (** smallest transaction, bytes, power of two *)
  max_segment : int;  (** initial segment size, bytes, power of two *)
}

val config_of_spec : Gpu_hw.Spec.t -> config

(** The transactions serving one access, in service order: a growable
    buffer reused across accesses.  Entries [0 .. count-1] of [bases] and
    [sizes] are valid. *)
type txns = private {
  mutable count : int;
  mutable bases : int array;
  mutable sizes : int array;
}

val txns : unit -> txns

(** [warp_transactions_masked c ~width out addrs ~mask] serves a warp
    access — byte address [addrs.(i)] for each lane [i] enabled in [mask]
    ({!Lanes}) — split into issue groups of [c.group] lanes, replacing the
    contents of [out].  Allocates nothing once [out] has grown.  Raises
    [Invalid_argument] on a bad config, an access wider than a segment,
    a negative or misaligned enabled address, or beyond {!Lanes.max}
    lanes. *)
val warp_transactions_masked :
  config -> width:int -> txns -> int array -> mask:int -> unit

(** {2 [int option array] wrappers} *)

(** Transactions serving one issue group.  [addresses.(i) = Some a] is the
    byte address requested by thread [i] ([None] = inactive); [width] is the
    access width in bytes.  Addresses must be width-aligned. *)
val group_transactions : config -> width:int -> int option array -> txn list

(** Serve a full warp by splitting it into issue groups. *)
val warp_transactions : config -> width:int -> int option array -> txn list

(** Total bytes moved by a transaction list. *)
val bytes : txn list -> int

val count : txn list -> int

(** Requested bytes / transferred bytes; 1.0 = perfectly coalesced. *)
val efficiency : width:int -> int option array -> txn list -> float

val pp_txn : Format.formatter -> txn -> unit
