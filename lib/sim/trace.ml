(* Execution traces for the timing simulator: one compact event per issued
   warp-instruction, carrying just what timing needs — the cost class, the
   register dependence information for the per-warp scoreboard, and the
   memory transactions the access generated.  Predicate registers share the
   register id space at [pred_reg_base + n].

   The [event] record is the one trace representation: the interpreter
   builds it, the checking harness lowers generated cases to it, and the
   timing engine cooks it straight into its per-warp cost arrays. *)

module I = Gpu_isa.Instr

let pred_reg_base = 1000

let no_reg = -1

type mem =
  | No_mem
  | Smem of int (* conflict-adjusted half-warp transaction count *)
  | Smem_atomic of int (* contention-serialized half-warp transactions *)
  | Gmem_load of (int * int) array (* (base, size) transactions *)
  | Gmem_store of (int * int) array

type event = {
  cls : I.cost_class;
  dst : int; (* destination register id, or [no_reg] *)
  srcs : int array; (* source register ids *)
  mem : mem;
  bar : bool;
}

type warp_trace = event array

type block_trace = { block : int; warps : warp_trace array }

(* Builder used by the interpreter: an amortized-doubling buffer, so a
   trace of n events costs O(log n) allocations instead of an n-long
   reversed list plus the [Array.of_list] copy. *)
type builder = { mutable buf : event array; mutable count : int }

let builder () = { buf = [||]; count = 0 }

let add b e =
  let cap = Array.length b.buf in
  if b.count = cap then begin
    let buf = Array.make (max 16 (2 * cap)) e in
    Array.blit b.buf 0 buf 0 b.count;
    b.buf <- buf
  end;
  b.buf.(b.count) <- e;
  b.count <- b.count + 1

let finish b = Array.sub b.buf 0 b.count

let event_count (t : block_trace) =
  Array.fold_left (fun acc w -> acc + Array.length w) 0 t.warps
