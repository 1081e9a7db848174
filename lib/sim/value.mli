(** Register values and the warp-wide operations on them.

    A register holds a 64-bit pattern, kept by the interpreter as two OCaml
    [int]s: the low and the high 32-bit word, each sign-extended (a
    "word").  Integer and single-precision operations read and write the
    low word, and a 32-bit write clears the high word (the zero-extended
    canonical form); the double-precision class IV operations use both
    words — a simplification over real register pairs.

    No operation here boxes a float, an [int32] or an [int64]. *)

(** Round an OCaml float to the nearest single-precision value. *)
val round_f32 : float -> float

(** The low 32 bits of an [int], sign-extended: the word it stores as. *)
val word : int -> int

(** A single-precision value's bits as a word (rounding to single
    precision), and back. *)
val of_f32 : float -> int

val to_f32 : int -> float

(** A double from its low and high words, and the two words of one. *)
val to_f64 : lo:int -> hi:int -> float

val lo_of_f64 : float -> int
val hi_of_f64 : float -> int

(** {2 Warp-wide operations}

    A warp's registers are two planes, [lo] and [hi], of {!lanes} words per
    register, register-major.  An operand is a register row ([r * lanes],
    non-negative) or, when negative, the immediate word in its [_imm]
    field (an immediate's high word is 0).  An operation computes every
    lane enabled in the mask [em] (bit [i] = lane [i]) and makes no call
    per lane but the conversions between single-precision bits and
    floats. *)

val lanes : int

type operands = {
  dst : int;  (** destination row *)
  a : int;
  a_imm : int;
  b : int;
  b_imm : int;
  c : int;
  c_imm : int;
}

(** The register-to-register operations, each the low 32 bits (or the
    single-precision result) of the ISA operation on its operands: [Mov]
    copies both words; [Mul24] and [Imad] ([a * b + c]) multiply the
    sign-extended low 24 bits; [Fmad] computes [a * b + c] in double
    precision (the product is exact there) and rounds once to single
    precision; [Dop] and [Dfma] ([a * b + c], fused) use both words of
    every operand. *)
type alu =
  | Mov
  | Iop of Gpu_isa.Instr.ibinop
  | Imad
  | Fop of Gpu_isa.Instr.fbinop
  | Fmad
  | Sfu of Gpu_isa.Instr.sfu_op
  | Cvt of Gpu_isa.Instr.cvt_op
  | Dop of Gpu_isa.Instr.dbinop
  | Dfma

(** [alu op ~lo ~hi o ~em] writes [op]'s result on operands [o] into row
    [o.dst] of every enabled lane.  A lane reads its operands before it
    writes, so the destination may be a source. *)
val alu : alu -> lo:int array -> hi:int array -> operands -> em:int -> unit

(** [fmad_broadcast ~lo ~hi o ~em b] is [alu Fmad] with operand [b] the
    word [b] in every lane, converted once: the fused MAD whose shared
    operand every lane reads from one address. *)
val fmad_broadcast :
  lo:int array -> hi:int array -> operands -> em:int -> int -> unit

(** [setp cmp ty ~lo o ~em bits] is the predicate lane mask [bits] with
    each enabled lane set to [cmp] of operands [a] and [b], compared as
    [ty]. *)
val setp :
  Gpu_isa.Instr.cmp -> Gpu_isa.Instr.cmp_type -> lo:int array -> operands ->
  em:int -> int -> int
