(** The SIMT interpreter at the heart of the functional simulator (Barra
    analog): warps of 32 lanes execute the native ISA in lockstep, branch
    divergence uses a reconvergence stack driven by the post-dominator
    labels in conditional branches, and a block's warps run round-robin
    between barriers.  The program is decoded once per {!create}, and a
    warp-instruction allocates nothing but the trace event it may record.
    Most users want {!Sim.run} instead. *)

exception Stuck of string
(** Raised on invalid execution: bad pc, shared-memory fault, a base
    register that holds no address, runaway kernel, malformed SIMT
    stack. *)

(** One run's interpreter: the device, the decoded program, the launch
    shape, the options, the storage of the block being executed and
    reusable per-access scratch.  Not shareable across domains. *)
type t

(** [create spec ~grid ~nthreads ~smem_bytes ~nregs ~params program]
    decodes [program] for blocks of [nthreads] threads with [nregs]
    registers each and [smem_bytes] of shared memory, in a grid of [grid]
    blocks; [params] are the [(register, value)] pairs the driver sets in
    every thread before it starts.  [collect_trace] records timing events,
    [max_warp_instructions] bounds runaway kernels, and [inject_stuck_at n]
    forces a deterministic {!Stuck} trap at a warp's [n]-th issued
    instruction (fault injection).  Raises
    {!Gpu_isa.Program.Unknown_label} on a branch to an undefined label. *)
val create :
  ?collect_trace:bool -> ?max_warp_instructions:int ->
  ?inject_stuck_at:int -> Gpu_hw.Spec.t -> grid:int -> nthreads:int ->
  smem_bytes:int -> nregs:int -> params:(int * int) list ->
  Gpu_isa.Program.t -> t

(** [run_block m ~gmem ~stats bid] runs block [bid] from its initial state
    (zeroed registers and shared memory) to completion, respecting
    barriers, and returns its trace (empty warps unless [collect_trace]). *)
val run_block : t -> gmem:Memory.t -> stats:Stats.t -> int -> Trace.block_trace
