(** Minimal binary min-heap of [int] payloads keyed by integer time: the
    event queue of the timing engine, whose payloads are warp ids.
    Neither {!add} nor {!pop} allocates, and a pop hands back the bare
    payload — read its key with {!min_key} first.

    Equal keys pop in a fixed order: the one a textbook swap-based binary
    heap produces (strict [<] comparisons, left child preferred on ties),
    so a schedule built on this queue is reproducible bit for bit. *)

type t

(** An empty heap. *)
val create : unit -> t
val is_empty : t -> bool
val add : t -> key:int -> int -> unit

(** The minimum key currently stored.  Only meaningful when the heap is
    non-empty ([is_empty t = false]); reading an empty heap's minimum
    returns an unspecified value.  [add t ~key v] followed by [pop t]
    returns [v] whenever [key < min_key t] held before the [add] — the
    engine's event-coalescing shortcut relies on exactly that. *)
val min_key : t -> int

(** Remove the minimum-key element and return its payload; its key is
    the {!min_key} read just before.  Raises [Invalid_argument] on an
    empty heap. *)
val pop : t -> int
