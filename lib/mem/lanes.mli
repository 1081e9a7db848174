(** A warp access as the memory analyzers consume it: one byte address
    per lane in an [int array] plus a bit mask of the enabled lanes (bit
    [i] = lane [i]).  Addresses of disabled lanes are ignored.  The
    interpreter fills one such array per access and reuses it; the
    [int option array] form of the older entry points converts through
    {!of_options}. *)

(** Most lanes a mask can describe (the bits of an OCaml [int]). *)
val max : int

(** Lanes [start .. start+len-1] as a mask. *)
val range_mask : int -> int -> int

(** Number of enabled lanes. *)
val popcount : int -> int

(** [of_options a] is [(addresses, mask)] with [Some x] lanes enabled.
    Raises [Invalid_argument] beyond {!max} lanes. *)
val of_options : int option array -> int array * int
