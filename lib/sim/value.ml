(* Register values and the warp-wide operations on them, on the two-word
   int form described in value.mli.  The per-lane semantics below are
   inlined into the warp loops at the end, so a warp operation makes no
   call per lane except the C conversions between single-precision bits
   and floats, and boxes nothing. *)

module I = Gpu_isa.Instr

let[@inline] round_f32 (x : float) : float =
  Int32.float_of_bits (Int32.bits_of_float x)

let[@inline] word x = (x lsl 31) asr 31

let[@inline] of_f32 (x : float) = Int32.to_int (Int32.bits_of_float x)

let[@inline] to_f32 w = Int32.float_of_bits (Int32.of_int w)

let[@inline] to_f64 ~lo ~hi =
  Int64.float_of_bits
    (Int64.logor
       (Int64.shift_left (Int64.of_int hi) 32)
       (Int64.logand (Int64.of_int lo) 0xFFFF_FFFFL))

let[@inline] lo_of_f64 x = Int32.to_int (Int64.to_int32 (Int64.bits_of_float x))

let[@inline] hi_of_f64 x =
  Int32.to_int
    (Int64.to_int32 (Int64.shift_right_logical (Int64.bits_of_float x) 32))

(* Int32 arithmetic is the low 32 bits of the same operation on
   sign-extended ints. *)
let[@inline] sext24 x = (x lsl 39) asr 39

let[@inline] ibinop op x y =
  match op with
  | I.Add -> word (x + y)
  | I.Sub -> word (x - y)
  | I.Mul24 -> word (sext24 x * sext24 y)
  | I.Mul -> word (x * y)
  | I.Min -> if x <= y then x else y
  | I.Max -> if x >= y then x else y
  | I.And -> x land y
  | I.Or -> x lor y
  | I.Xor -> x lxor y
  | I.Shl -> word (x lsl (y land 31))
  | I.Shr -> x asr (y land 31)

let[@inline] imad x y z = word ((sext24 x * sext24 y) + z)

(* [of_f32] rounds to single precision itself, and rounding an already
   rounded value changes no bit (NaNs included), so the results below go
   straight to [of_f32]: each [round_f32] saved is two C calls per lane. *)
let[@inline] fbinop op x y =
  let a = to_f32 x and b = to_f32 y in
  of_f32
    (match op with
    | I.Fadd -> a +. b
    | I.Fsub -> a -. b
    | I.Fmul -> a *. b
    | I.Fmin -> if a <= b then a else b
    | I.Fmax -> if a >= b then a else b)

let[@inline] fmad x y z = of_f32 ((to_f32 x *. to_f32 y) +. to_f32 z)

let[@inline] sfu op x =
  let a = to_f32 x in
  of_f32
    (match op with
    | I.Rcp -> 1.0 /. a
    | I.Rsqrt -> 1.0 /. sqrt a
    | I.Sin -> sin a
    | I.Cos -> cos a
    | I.Lg2 -> log a /. log 2.0
    | I.Ex2 -> Float.pow 2.0 a)

let[@inline] cvt op x =
  match op with
  | I.I2f -> of_f32 (float_of_int x)
  | I.F2i -> Int32.to_int (Int32.of_float (to_f32 x))
  | I.F2i_rni -> Int32.to_int (Int32.of_float (Float.round (to_f32 x)))

let[@inline] holds cmp ty x y =
  match ty with
  | I.S32 -> (
    match cmp with
    | I.Eq -> x = y
    | I.Ne -> x <> y
    | I.Lt -> x < y
    | I.Le -> x <= y
    | I.Gt -> x > y
    | I.Ge -> x >= y)
  | I.F32 -> (
    let a = to_f32 x and b = to_f32 y in
    match cmp with
    | I.Eq -> a = b
    | I.Ne -> a <> b
    | I.Lt -> a < b
    | I.Le -> a <= b
    | I.Gt -> a > b
    | I.Ge -> a >= b)

(* --- Warp-wide operations ----------------------------------------------- *)

let lanes = 32

type operands = {
  dst : int;
  a : int;
  a_imm : int;
  b : int;
  b_imm : int;
  c : int;
  c_imm : int;
}

type alu =
  | Mov
  | Iop of I.ibinop
  | Imad
  | Fop of I.fbinop
  | Fmad
  | Sfu of I.sfu_op
  | Cvt of I.cvt_op
  | Dop of I.dbinop
  | Dfma

let[@inline] enabled em lane = em land (1 lsl lane) <> 0

(* An operand's low word in [lane]: register row [r], or the immediate. *)
(* The planes are annotated at every helper: a helper typed over ['a array]
   would keep its generic (tag-testing, [caml_modify]) accesses when
   inlined. *)
let[@inline] get (lo : int array) r imm lane =
  if r >= 0 then lo.(r + lane) else imm

let[@inline] get_hi (hi : int array) r lane = if r >= 0 then hi.(r + lane) else 0

let[@inline] set32 (lo : int array) (hi : int array) dst lane v =
  lo.(dst + lane) <- v;
  hi.(dst + lane) <- 0

let[@inline] get_f64 (lo : int array) (hi : int array) r imm lane =
  to_f64 ~lo:(get lo r imm lane) ~hi:(get_hi hi r lane)

let[@inline] set_f64 (lo : int array) (hi : int array) dst lane x =
  lo.(dst + lane) <- lo_of_f64 x;
  hi.(dst + lane) <- hi_of_f64 x

(* One loop per operation shape; a lane reads its operands before it
   writes the destination, so [dst] may alias a source. *)
let alu op ~(lo : int array) ~(hi : int array) o ~em =
  let dst = o.dst and a = o.a and ai = o.a_imm and b = o.b and bi = o.b_imm
  and c = o.c and ci = o.c_imm in
  match op with
  | Mov ->
    for lane = 0 to lanes - 1 do
      if enabled em lane then begin
        let x = get lo a ai lane and h = get_hi hi a lane in
        lo.(dst + lane) <- x;
        hi.(dst + lane) <- h
      end
    done
  | Iop f ->
    for lane = 0 to lanes - 1 do
      if enabled em lane then
        set32 lo hi dst lane (ibinop f (get lo a ai lane) (get lo b bi lane))
    done
  | Imad ->
    for lane = 0 to lanes - 1 do
      if enabled em lane then
        set32 lo hi dst lane
          (imad (get lo a ai lane) (get lo b bi lane) (get lo c ci lane))
    done
  | Fop f ->
    for lane = 0 to lanes - 1 do
      if enabled em lane then
        set32 lo hi dst lane (fbinop f (get lo a ai lane) (get lo b bi lane))
    done
  | Fmad ->
    for lane = 0 to lanes - 1 do
      if enabled em lane then
        set32 lo hi dst lane
          (fmad (get lo a ai lane) (get lo b bi lane) (get lo c ci lane))
    done
  | Sfu f ->
    for lane = 0 to lanes - 1 do
      if enabled em lane then set32 lo hi dst lane (sfu f (get lo a ai lane))
    done
  | Cvt f ->
    for lane = 0 to lanes - 1 do
      if enabled em lane then set32 lo hi dst lane (cvt f (get lo a ai lane))
    done
  | Dop f ->
    for lane = 0 to lanes - 1 do
      if enabled em lane then begin
        let x = get_f64 lo hi a ai lane and y = get_f64 lo hi b bi lane in
        set_f64 lo hi dst lane (match f with I.Dadd -> x +. y | I.Dmul -> x *. y)
      end
    done
  | Dfma ->
    for lane = 0 to lanes - 1 do
      if enabled em lane then
        set_f64 lo hi dst lane
          (Float.fma (get_f64 lo hi a ai lane) (get_f64 lo hi b bi lane)
             (get_f64 lo hi c ci lane))
    done

let fmad_broadcast ~(lo : int array) ~(hi : int array) o ~em b =
  let bf = to_f32 b and a = o.a and ai = o.a_imm and c = o.c and ci = o.c_imm in
  for lane = 0 to lanes - 1 do
    if enabled em lane then
      set32 lo hi o.dst lane
        (of_f32 ((to_f32 (get lo a ai lane) *. bf) +. to_f32 (get lo c ci lane)))
  done

let setp cmp ty ~(lo : int array) o ~em bits =
  let bits = ref bits in
  for lane = 0 to lanes - 1 do
    if enabled em lane then
      if holds cmp ty (get lo o.a o.a_imm lane) (get lo o.b o.b_imm lane) then
        bits := !bits lor (1 lsl lane)
      else bits := !bits land lnot (1 lsl lane)
  done;
  !bits
