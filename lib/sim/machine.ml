(* The SIMT interpreter at the heart of the functional simulator (the Barra
   analog).  Warps of 32 lanes execute the native ISA in lockstep; branch
   divergence uses the classic reconvergence stack driven by the
   post-dominator labels the compiler records in conditional branches.

   A block's warps run round-robin between barriers: each warp executes
   until it reaches a barrier or exits, then the next warp runs.  This is
   functionally exact for programs whose cross-warp shared-memory
   communication is barrier-delimited — which the barrier programming model
   requires anyway.

   The interpreter is built so that a warp-instruction allocates nothing
   beyond the trace event it may record (DESIGN §18):
   - the program is decoded once per run into one record of ints per pc —
     opcode, the {!Value} operation and operand rows, guard, memory
     operand, resolved branch targets and the static trace event (an
     instruction without a memory access records it as is);
   - registers are two [int array] planes (low and high 32-bit word,
     {!Value}), predicates one lane mask each, shared memory a [Bytes],
     all reused from block to block;
   - the register-to-register operations run warp-wide inside {!Value};
   - per-lane addresses go into one reusable array next to the enable
     mask, and the bank and coalescing analyzers tally into reusable
     scratch ({!Gpu_mem.Lanes}). *)

module I = Gpu_isa.Instr

exception Stuck of string

let stuck fmt = Printf.ksprintf (fun s -> raise (Stuck s)) fmt

let lanes = Value.lanes

let num_preds = 4

let full_mask n = (1 lsl n) - 1

(* --- Decoded program ------------------------------------------------------ *)

(* Opcodes of the decoded form: register-to-register operations first,
   then the memory accesses, then control. *)
let op_alu = 0 (* a {!Value.alu} operation *)
let op_mov_sreg = 1
let op_setp = 2
let op_selp = 3
let op_fmad_smem = 4
let op_ld_shared = 5
let op_st_shared = 6
let op_ld_global = 7
let op_st_global = 8
let op_atom = 9
let op_bra = 10
let op_bra_pred = 11
let op_bar = 12
let op_exit = 13

(* One decoded instruction.  Its register operands are rows of the
   register planes, its immediates words ({!Value.operands}); a memory
   access stores through [o.a] and swaps with [o.c]. *)
type decoded = {
  op : int;
  alu : Value.alu;
  o : Value.operands;
  cmp : I.cmp;  (* setp *)
  cmp_ty : I.cmp_type;
  sreg : I.sreg;
  atomic : I.atomic_op;
  p : int;  (* predicate operand: setp destination, selp/bra_pred source *)
  guard : int;  (* guard predicate, -1 when unguarded *)
  sense : bool;  (* lanes run where the guard = sense *)
  taken_if : bool;  (* bra_pred branches where its predicate = taken_if *)
  base : int;  (* memory operand: address register row and byte offset *)
  offset : int;
  width : int;
  target : int;  (* branch target and reconvergence pcs *)
  reconv : int;
  cls : I.cost_class;
  work : bool;  (* counts the warp active in its stage (not control) *)
  mad : bool;
  invalid : string option;  (* traps when issued, after counting *)
  event : Trace.event;  (* memory instructions replace [mem] *)
}

type program = decoded array

let reg_id (I.R r) = r

let pred_id (I.P p) = Trace.pred_reg_base + p

(* Trace source registers, in the order the trace has always listed them:
   each operand is consed on, so the last operand comes first and the
   guard predicate last. *)
let srcs_of (i : I.t) =
  let guard = match i.pred with Some (p, _) -> [ pred_id p ] | None -> [] in
  let opnd acc = function
    | I.Reg r -> reg_id r :: acc
    | I.Imm _ | I.Fimm _ -> acc
  in
  let mem (m : I.maddr) = reg_id m.base :: guard in
  match i.op with
  | I.Mov (_, a) | I.Sfu (_, _, a) | I.Cvt (_, _, a) -> opnd guard a
  | I.Mov_sreg _ | I.Bra _ | I.Bar | I.Exit -> guard
  | I.Iop (_, _, a, b) | I.Fop (_, _, a, b) | I.Dop (_, _, a, b)
  | I.Setp (_, _, _, a, b) ->
    opnd (opnd guard a) b
  | I.Imad (_, a, b, c) | I.Fmad (_, a, b, c) | I.Dfma (_, a, b, c) ->
    opnd (opnd (opnd guard a) b) c
  | I.Selp (_, a, b, p) -> pred_id p :: opnd (opnd guard a) b
  | I.Fmad_smem (_, a, m, c) -> opnd (opnd (mem m) a) c
  | I.Ld (_, _, _, m) -> mem m
  | I.St (_, _, m, s) -> opnd (mem m) s
  | I.Atom (_, _, m, s, swap) ->
    let srcs = opnd (mem m) s in
    (match swap with Some sw -> opnd srcs sw | None -> srcs)
  | I.Bra_pred (p, _, _, _) -> pred_id p :: guard

(* [temp] is a spare register row: a fused MAD reads its shared operand
   through it. *)
let decode_instr program ~nregs ~temp (i : I.t) =
  let cls = I.classify i in
  let no_operands =
    { Value.dst = 0; a = -1; a_imm = 0; b = -1; b_imm = 0; c = -1; c_imm = 0 }
  in
  let d =
    {
      op = op_exit; alu = Value.Mov; o = no_operands; cmp = I.Eq;
      cmp_ty = I.S32; sreg = I.Tid_x; atomic = I.Aadd; p = 0; guard = -1;
      sense = true; taken_if = true; base = 0; offset = 0; width = 4;
      target = 0; reconv = 0; cls; work = true; mad = false; invalid = None;
      event =
        {
          Trace.cls;
          dst = Trace.no_reg;
          srcs = Array.of_list (srcs_of i);
          mem = Trace.No_mem;
          bar = false;
        };
    }
  in
  let d =
    match i.pred with
    | Some (I.P g, sense) -> { d with guard = g; sense }
    | None -> d
  in
  let row (I.R r) =
    if r < 0 || r >= nregs then
      stuck "%s: register r%d beyond the kernel's %d"
        (Gpu_isa.Program.name program) r nregs;
    r * lanes
  in
  let operand = function
    | I.Reg r -> (row r, 0)
    | I.Imm v -> (-1, Int32.to_int v)
    | I.Fimm f -> (-1, Value.of_f32 (Value.round_f32 f))
  in
  let dst r d =
    { d with o = { d.o with dst = row r }; event = { d.event with dst = reg_id r } }
  in
  let a x d = let a, a_imm = operand x in { d with o = { d.o with a; a_imm } } in
  let b x d = let b, b_imm = operand x in { d with o = { d.o with b; b_imm } } in
  let c x d = let c, c_imm = operand x in { d with o = { d.o with c; c_imm } } in
  let mem ~width (m : I.maddr) d =
    { d with base = row m.base; offset = m.offset; width }
  in
  let alu alu d = { d with op = op_alu; alu } in
  let control d = { d with work = false } in
  let target l = Gpu_isa.Program.target_pc program l in
  match i.op with
  | I.Mov (r, x) -> alu Value.Mov (dst r (a x d))
  | I.Mov_sreg (r, sreg) -> { (dst r d) with op = op_mov_sreg; sreg }
  | I.Sfu (f, r, x) -> alu (Value.Sfu f) (dst r (a x d))
  | I.Cvt (f, r, x) -> alu (Value.Cvt f) (dst r (a x d))
  | I.Iop (f, r, x, y) -> alu (Value.Iop f) (dst r (a x (b y d)))
  | I.Fop (f, r, x, y) -> alu (Value.Fop f) (dst r (a x (b y d)))
  | I.Dop (f, r, x, y) -> alu (Value.Dop f) (dst r (a x (b y d)))
  | I.Imad (r, x, y, z) -> alu Value.Imad (dst r (a x (b y (c z d))))
  | I.Fmad (r, x, y, z) -> { (alu Value.Fmad (dst r (a x (b y (c z d))))) with mad = true }
  | I.Dfma (r, x, y, z) -> alu Value.Dfma (dst r (a x (b y (c z d))))
  | I.Setp (cmp, cmp_ty, (I.P q as pr), x, y) ->
    control
      {
        (a x (b y d)) with
        op = op_setp;
        cmp;
        cmp_ty;
        p = q;
        event = { d.event with dst = pred_id pr };
      }
  | I.Selp (r, x, y, I.P q) -> { (dst r (a x (b y d))) with op = op_selp; p = q }
  | I.Fmad_smem (r, x, m, z) ->
    let d = dst r (a x (c z (mem ~width:4 m d))) in
    { d with op = op_fmad_smem; o = { d.o with b = temp }; mad = true }
  | I.Ld (I.Shared, width, r, m) ->
    {
      (dst r (mem ~width m d)) with
      op = op_ld_shared;
      invalid = (if width <> 4 then Some "shared loads must be 32-bit" else None);
    }
  | I.St (I.Shared, width, m, x) ->
    {
      (a x (mem ~width m d)) with
      op = op_st_shared;
      invalid = (if width <> 4 then Some "shared stores must be 32-bit" else None);
    }
  | I.Ld (I.Global, width, r, m) -> { (dst r (mem ~width m d)) with op = op_ld_global }
  | I.St (I.Global, width, m, x) -> { (a x (mem ~width m d)) with op = op_st_global }
  | I.Atom (atomic, r, m, x, swap) ->
    let d = dst r (a x (mem ~width:4 m d)) in
    let d = match swap with Some sw -> c sw d | None -> d in
    let invalid =
      match (atomic, swap) with
      | I.Acas, None -> Some "atom.cas needs a swap operand"
      | (I.Aadd | I.Amin | I.Amax), Some _ ->
        Some
          (Printf.sprintf "atom.%s takes no swap operand"
             (I.atomic_op_name atomic))
      | I.Acas, Some _ | (I.Aadd | I.Amin | I.Amax), None -> None
    in
    { d with op = op_atom; atomic; invalid }
  | I.Bra l -> control { d with op = op_bra; target = target l }
  | I.Bra_pred (I.P q, taken_if, t, r) ->
    control
      {
        d with
        op = op_bra_pred;
        p = q;
        taken_if;
        target = target t;
        reconv = target r;
      }
  | I.Bar -> control { d with op = op_bar; event = { d.event with bar = true } }
  | I.Exit -> control d

(* --- Interpreter state ------------------------------------------------------ *)

type frame = { mutable pc : int; rpc : int; mask : int }

type warp = {
  wid : int;
  base_tid : int; (* tid of lane 0 *)
  nlanes : int;
  lo : int array; (* (nregs + 1) x lanes, register-major: low words;
                     the last row is scratch *)
  hi : int array; (* high words (double precision, 64-bit loads) *)
  preds : int array; (* one lane mask per predicate register *)
  mutable stack : frame list;
  mutable finished : bool;
  mutable at_barrier : bool;
  mutable issued : int;
  mutable counted_stage : int; (* last stage this warp was counted active in *)
  mutable trace : Trace.builder;
}

(* The one block a run executes at a time: every block of the launch has
   the same shape, so its warps' storage is reset and reused. *)
type block = {
  mutable bid : int;
  grid : int; (* blocks in the launch, for %nctaid *)
  nthreads : int;
  shared : Bytes.t; (* shared memory, little-endian 32-bit words *)
  warps : warp array;
  mutable stage : int;
}

type t = {
  spec : Gpu_hw.Spec.t;
  program : program;
  coalesce : Gpu_mem.Coalesce.config;
  collect_trace : bool;
  max_warp_instructions : int; (* runaway-kernel guard *)
  inject_stuck_at : int option; (* fault injection: trap at this issue *)
  params : (int * int) list; (* (register, value) set in every thread *)
  block : block;
  (* per-access scratch, reused by every warp of the run *)
  addrs : int array;
  bank : Gpu_mem.Bank.scratch;
  txns : Gpu_mem.Coalesce.txns;
}

let create ?(collect_trace = false) ?(max_warp_instructions = 500_000_000)
    ?inject_stuck_at spec ~grid ~nthreads ~smem_bytes ~nregs ~params program =
  let warp w =
    let base_tid = w * lanes in
    {
      wid = w;
      base_tid;
      nlanes = min lanes (nthreads - base_tid);
      lo = Array.make ((nregs + 1) * lanes) 0;
      hi = Array.make ((nregs + 1) * lanes) 0;
      preds = Array.make num_preds 0;
      stack = [];
      finished = false;
      at_barrier = false;
      issued = 0;
      counted_stage = -1;
      trace = Trace.builder ();
    }
  in
  {
    spec;
    program =
      Array.map
        (decode_instr program ~nregs ~temp:(nregs * lanes))
        (Gpu_isa.Program.code program);
    coalesce = Gpu_mem.Coalesce.config_of_spec spec;
    collect_trace;
    max_warp_instructions;
    inject_stuck_at;
    params;
    block =
      {
        bid = 0;
        grid;
        nthreads;
        shared = Bytes.make (4 * max 1 ((smem_bytes + 3) / 4)) '\000';
        warps = Array.init ((nthreads + lanes - 1) / lanes) warp;
        stage = 0;
      };
    addrs = Array.make lanes 0;
    bank = Gpu_mem.Bank.scratch ();
    txns = Gpu_mem.Coalesce.txns ();
  }

(* Block [bid]'s initial state: zeroed registers, predicates and shared
   memory, the parameter registers set, every warp at pc 0. *)
let reset m bid =
  let block = m.block in
  block.bid <- bid;
  block.stage <- 0;
  Bytes.fill block.shared 0 (Bytes.length block.shared) '\000';
  Array.iter
    (fun w ->
      Array.fill w.lo 0 (Array.length w.lo) 0;
      Array.fill w.hi 0 (Array.length w.hi) 0;
      Array.fill w.preds 0 num_preds 0;
      List.iter
        (fun (reg, v) ->
          for lane = 0 to lanes - 1 do
            w.lo.((reg * lanes) + lane) <- Value.word v
          done)
        m.params;
      w.stack <- [ { pc = 0; rpc = -1; mask = full_mask w.nlanes } ];
      w.finished <- false;
      w.at_barrier <- false;
      w.issued <- 0;
      w.counted_stage <- -1;
      w.trace <- Trace.builder ())
    block.warps

(* --- Shared-memory access --------------------------------------------- *)

let shared_fault block addr =
  let bytes = Bytes.length block.shared in
  if addr < 0 || addr + 4 > bytes then
    stuck "block %d: shared access at %#x outside [0, %#x)" block.bid addr
      bytes
  else stuck "block %d: misaligned shared access at %#x" block.bid addr

let[@inline] shared_check block addr =
  if addr < 0 || addr + 4 > Bytes.length block.shared || addr land 3 <> 0 then
    shared_fault block addr

let[@inline] shared_load block addr =
  shared_check block addr;
  Int32.to_int (Bytes.get_int32_le block.shared addr)

let[@inline] shared_store block addr v =
  shared_check block addr;
  Bytes.set_int32_le block.shared addr (Int32.of_int v)

(* --- Instruction execution -------------------------------------------- *)

type outcome = Continue | Hit_barrier | Exited

(* Pop reconverged frames: a frame whose pc reached its reconvergence point
   transfers control to the next stacked side (or the continuation). *)
let rec pop_reconverged w =
  match w.stack with
  | fr :: (_ :: _ as rest) when fr.pc = fr.rpc ->
    w.stack <- rest;
    pop_reconverged w
  | _ -> ()

let[@inline] enabled em lane = em land (1 lsl lane) <> 0

(* An operand's low word: register row [r], or the immediate. *)
let[@inline] word_of w r imm lane = if r >= 0 then w.lo.(r + lane) else imm

let[@inline] high_of w r lane = if r >= 0 then w.hi.(r + lane) else 0

let[@inline] set_word w dst lane v =
  w.lo.(dst + lane) <- v;
  w.hi.(dst + lane) <- 0

(* Record the static event of an instruction without a memory access;
   the memory accesses record their own, carrying the transactions. *)
let record m w (d : decoded) = if m.collect_trace then Trace.add w.trace d.event

let record_mem w (d : decoded) mem =
  Trace.add w.trace { d.event with mem }

(* The lowest lane enabled in [em], [lanes] when none is. *)
let lowest_enabled em =
  let lane = ref 0 in
  while !lane < lanes && not (enabled em !lane) do
    incr lane
  done;
  !lane

(* Whether every enabled lane holds lane [first]'s word in register row
   [row]. *)
let uniform_row (lo : int array) row em ~first =
  let v = lo.(row + first) and same = ref true in
  for lane = first + 1 to lanes - 1 do
    if enabled em lane && lo.(row + lane) <> v then same := false
  done;
  !same

(* A lane's byte address for a memory access, also kept in [m.addrs] for
   the bank and coalescing analysis.  A base register whose word is
   negative (an unsigned value of 2^31 or more) is no address at all: that
   traps here, located, rather than as a bad index further down. *)
let bad_address block w (d : decoded) ~pc v =
  stuck
    "block %d warp %d: pc %d addresses %#x through r%d, outside the 31-bit \
     address space"
    block.bid w.wid pc (v land 0xFFFF_FFFF) (d.base / lanes)

let[@inline] address m block w (d : decoded) ~pc lane =
  let v = w.lo.(d.base + lane) in
  if v < 0 then bad_address block w d ~pc v;
  let addr = v + d.offset in
  m.addrs.(lane) <- addr;
  addr

let count_smem m ~stats block w d ~pc em =
  let spec = m.spec in
  let group = spec.Gpu_hw.Spec.coalesce_threads in
  let txns =
    Gpu_mem.Bank.warp_transactions_masked m.bank ~width:d.width
      ~banks:spec.Gpu_hw.Spec.smem_banks ~group m.addrs ~mask:em
  in
  (* shared accesses are aligned 4-byte words (checked per lane), so the
     conflict-free count is one transaction per active group *)
  let ideal = Gpu_mem.Bank.active_groups ~group ~lanes ~mask:em in
  Stats.count_smem stats ~stage:block.stage ~pc ~txns ~ideal;
  if m.collect_trace then record_mem w d (Trace.Smem txns)

let count_atomic m ~stats block w d ~pc em =
  let spec = m.spec in
  let group = spec.Gpu_hw.Spec.coalesce_threads in
  let txns =
    Gpu_mem.Bank.warp_atomic_transactions_masked m.bank ~width:4
      ~banks:spec.Gpu_hw.Spec.smem_banks ~group m.addrs ~mask:em
  in
  let ideal = Gpu_mem.Bank.active_groups ~group ~lanes ~mask:em in
  Stats.count_atomic stats ~stage:block.stage ~pc ~txns ~ideal;
  if m.collect_trace then record_mem w d (Trace.Smem_atomic txns)

let count_gmem m ~stats block w d ~pc em =
  let t = m.txns in
  Gpu_mem.Coalesce.warp_transactions_masked m.coalesce ~width:d.width t
    m.addrs ~mask:em;
  Stats.count_gmem stats ~stage:block.stage ~pc
    ~requested:(Gpu_mem.Lanes.popcount em * d.width)
    t.sizes t.count;
  if m.collect_trace then begin
    let txns = Array.make t.count (0, 0) in
    for i = 0 to t.count - 1 do
      txns.(i) <- (t.bases.(i), t.sizes.(i))
    done;
    record_mem w d
      (if d.op = op_ld_global then Trace.Gmem_load txns
       else Trace.Gmem_store txns)
  end

(* Execute one warp-instruction of the warp's current stack top. *)
let step m ~gmem ~stats block w =
  pop_reconverged w;
  let fr = match w.stack with [] -> stuck "empty SIMT stack" | f :: _ -> f in
  let pc = fr.pc in
  if pc < 0 || pc >= Array.length m.program then
    stuck "block %d warp %d: pc %d outside program" block.bid w.wid pc;
  let d = m.program.(pc) in
  w.issued <- w.issued + 1;
  if w.issued > m.max_warp_instructions then
    stuck "block %d warp %d: exceeded %d instructions (runaway kernel?)"
      block.bid w.wid m.max_warp_instructions;
  (match m.inject_stuck_at with
  | Some n when w.issued = n ->
    stuck "block %d warp %d: injected trap at issue %d (pc %d)" block.bid
      w.wid n pc
  | Some _ | None -> ());
  let em =
    if d.guard < 0 then fr.mask
    else if d.sense then fr.mask land w.preds.(d.guard)
    else fr.mask land lnot w.preds.(d.guard)
  in
  (* A warp is "active" in a stage once it issues real work there with at
     least one enabled lane; the control skeleton every warp runs to skip a
     guarded region (setp, branches, barriers) does not count, so the
     per-step warp-level parallelism of workloads like cyclic reduction is
     what the paper reports (8, 4, 2, 1 warps). *)
  let stage = block.stage in
  Stats.count_issue stats ~stage ~pc d.cls;
  if d.work && em <> 0 && stage > w.counted_stage then begin
    w.counted_stage <- stage;
    Stats.count_active_warp stats ~stage
  end;
  if d.mad then Stats.count_mad stats ~stage;
  (match d.invalid with Some msg -> raise (Stuck msg) | None -> ());
  let op = d.op and o = d.o in
  if op <= op_selp then begin
    (* register-to-register: every enabled lane, then the static event *)
    if op = op_alu then Value.alu d.alu ~lo:w.lo ~hi:w.hi o ~em
    else if op = op_setp then
      w.preds.(d.p) <- Value.setp d.cmp d.cmp_ty ~lo:w.lo o ~em w.preds.(d.p)
    else if op = op_selp then begin
      let bits = w.preds.(d.p) in
      for lane = 0 to lanes - 1 do
        if enabled em lane then begin
          let take_a = bits land (1 lsl lane) <> 0 in
          let r = if take_a then o.a else o.b in
          let x = word_of w r (if take_a then o.a_imm else o.b_imm) lane in
          let h = high_of w r lane in
          w.lo.(o.dst + lane) <- x;
          w.hi.(o.dst + lane) <- h
        end
      done
    end
    else
      (* op_mov_sreg *)
      for lane = 0 to lanes - 1 do
        if enabled em lane then
          set_word w o.dst lane
            (Value.word
               (match d.sreg with
               | I.Tid_x -> w.base_tid + lane
               | I.Ntid_x -> block.nthreads
               | I.Ctaid_x -> block.bid
               | I.Nctaid_x -> block.grid
               | I.Laneid -> lane
               | I.Warpid -> w.wid))
      done;
    record m w d;
    fr.pc <- pc + 1;
    Continue
  end
  else if op <= op_atom then begin
    (* memory: each enabled lane computes its address and accesses memory
       in lane order, then the access is analyzed and counted *)
    let dst = o.dst and a = o.a and ai = o.a_imm in
    if op = op_ld_shared then begin
      for lane = 0 to lanes - 1 do
        if enabled em lane then
          set_word w dst lane (shared_load block (address m block w d ~pc lane))
      done;
      count_smem m ~stats block w d ~pc em
    end
    else if op = op_st_shared then begin
      for lane = 0 to lanes - 1 do
        if enabled em lane then
          shared_store block (address m block w d ~pc lane) (word_of w a ai lane)
      done;
      count_smem m ~stats block w d ~pc em
    end
    else if op = op_fmad_smem then begin
      let first = lowest_enabled em in
      if first < lanes && uniform_row w.lo d.base em ~first then begin
        (* every lane reads one address: a broadcast, loaded once *)
        let addr = address m block w d ~pc first in
        let b = shared_load block addr in
        for lane = first + 1 to lanes - 1 do
          if enabled em lane then m.addrs.(lane) <- addr
        done;
        Value.fmad_broadcast ~lo:w.lo ~hi:w.hi o ~em b
      end
      else begin
        (* the shared operand goes through the scratch row [o.b] *)
        for lane = 0 to lanes - 1 do
          if enabled em lane then
            w.lo.(o.b + lane) <- shared_load block (address m block w d ~pc lane)
        done;
        Value.alu Value.Fmad ~lo:w.lo ~hi:w.hi o ~em
      end;
      count_smem m ~stats block w d ~pc em
    end
    else if op = op_ld_global then begin
      for lane = 0 to lanes - 1 do
        if enabled em lane then begin
          let addr = address m block w d ~pc lane in
          if d.width = 8 then begin
            Memory.check gmem addr 8;
            w.lo.(dst + lane) <- Memory.word gmem addr;
            w.hi.(dst + lane) <- Memory.word gmem (addr + 4)
          end
          else set_word w dst lane (Memory.load32 gmem addr)
        end
      done;
      count_gmem m ~stats block w d ~pc em
    end
    else if op = op_st_global then begin
      for lane = 0 to lanes - 1 do
        if enabled em lane then begin
          let addr = address m block w d ~pc lane in
          if d.width = 8 then begin
            Memory.check gmem addr 8;
            Memory.set_word gmem addr (word_of w a ai lane);
            Memory.set_word gmem (addr + 4) (high_of w a lane)
          end
          else Memory.store32 gmem addr (word_of w a ai lane)
        end
      done;
      count_gmem m ~stats block w d ~pc em
    end
    else begin
      (* op_atom: lanes perform their read-modify-writes in lane order,
         each one observing the previous lane's write — the serialization
         the transaction count charges for.  The sources are read after
         the destination is written. *)
      for lane = 0 to lanes - 1 do
        if enabled em lane then begin
          let addr = address m block w d ~pc lane in
          let old = shared_load block addr in
          set_word w dst lane old;
          let src = word_of w a ai lane in
          let nv =
            match d.atomic with
            | I.Aadd -> Value.word (old + src)
            | I.Amin -> if old <= src then old else src
            | I.Amax -> if old >= src then old else src
            | I.Acas -> if old = src then word_of w o.c o.c_imm lane else old
          in
          shared_store block addr nv
        end
      done;
      count_atomic m ~stats block w d ~pc em
    end;
    fr.pc <- pc + 1;
    Continue
  end
  else if op = op_bra_pred then begin
    record m w d;
    let bits = w.preds.(d.p) in
    let taken = em land (if d.taken_if then bits else lnot bits) in
    if taken = 0 then fr.pc <- pc + 1
    else if taken = em && em = fr.mask then fr.pc <- d.target
    else begin
      (* Divergence: the current frame becomes the reconvergence
         continuation; the two sides are pushed above it. *)
      let fall_mask = fr.mask land lnot taken in
      fr.pc <- d.reconv;
      let taken_side = { pc = d.target; rpc = d.reconv; mask = taken } in
      w.stack <-
        (if fall_mask = 0 then taken_side :: w.stack
         else { pc = pc + 1; rpc = d.reconv; mask = fall_mask } :: taken_side :: w.stack)
    end;
    Continue
  end
  else if op = op_bra then begin
    record m w d;
    fr.pc <- d.target;
    Continue
  end
  else if op = op_bar then begin
    Stats.count_barrier stats ~stage;
    record m w d;
    fr.pc <- pc + 1;
    w.at_barrier <- true;
    Hit_barrier
  end
  else begin
    record m w d;
    w.finished <- true;
    Exited
  end

(* Run block [bid] to completion, respecting barriers: every unfinished
   warp runs up to its next barrier (or exit), then the barrier releases
   and the next stage begins. *)
let run_block m ~gmem ~stats bid =
  reset m bid;
  let block = m.block in
  let unfinished () = Array.exists (fun w -> not w.finished) block.warps in
  while unfinished () do
    Array.iter
      (fun w ->
        if not w.finished then begin
          w.at_barrier <- false;
          let running = ref true in
          while !running do
            match step m ~gmem ~stats block w with
            | Continue -> ()
            | Hit_barrier | Exited -> running := false
          done
        end)
      block.warps;
    if Array.exists (fun w -> w.at_barrier) block.warps then
      block.stage <- block.stage + 1
  done;
  {
    Trace.block = bid;
    warps = Array.map (fun w -> Trace.finish w.trace) block.warps;
  }
