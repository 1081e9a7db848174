(** Global device memory: 32-bit words addressed by byte,
    with the driver-side buffer allocator (the cudaMalloc analog; bases are
    256-byte aligned, which matters for coalescing).  Words are passed as
    sign-extended ints ({!Value.word}). *)

type t

exception Fault of string

val create : bytes:int -> t
val size_bytes : t -> int

(** [check t addr width] raises {!Fault} unless [width] bytes at [addr] are
    in bounds, [width]-aligned and not poisoned; [width] is a power of
    two. *)
val check : t -> int -> int -> unit

(** Checked 32-bit loads and stores ({!check} with width 4). *)
val load32 : t -> int -> int

val store32 : t -> int -> int -> unit

(** Unchecked word access at a byte address a {!check} has admitted, for
    the halves of a 64-bit access. *)
val word : t -> int -> int

val set_word : t -> int -> int -> unit

(** Fault injection: mark a byte range as failing, so any overlapping
    access raises {!Fault} — a deterministic stand-in for a failing memory
    transaction (ECC/Xid-style errors on real devices). *)
val poison : t -> addr:int -> width:int -> unit

val alignment : int

type allocation = { base : int; length : int (** words *) }

(** [layout sizes] places buffers of the given word sizes back to back with
    aligned bases; returns the allocations and total bytes needed. *)
val layout : int list -> allocation list * int

(** [copy_in t a data] makes [data] the contents of [a].  Memory is paged
    and a page is filled when first touched, so [data] is read lazily and
    must not change until the matching {!copy_out}. *)
val copy_in : t -> allocation -> int32 array -> unit

(** [copy_out t a data] stores the contents of [a] into [data]. *)
val copy_out : t -> allocation -> int32 array -> unit

val floats_to_words : float array -> int32 array
val words_to_floats : int32 array -> float array
