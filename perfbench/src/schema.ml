(* The benchmark's declared workloads and metrics.  BENCHMARK.json at the
   repository root states the same lists; the test suite checks that the
   two agree, and {!Emit} refuses to print a result that lacks any
   declared metric. *)

type better = Higher | Lower

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

let better_name = function Higher -> "higher" | Lower -> "lower"

let workloads =
  [
    ( "validation",
      "paper case-study path: the 14 validation configs through \
       Workflow.analyze_result ~measure:true; 1 caller, closed loop, whole \
       passes; sim and timing dominate" );
    ( "serve-mix",
      "gpuperf serve daemon; 1 client process, 2 connections, closed loop, \
       no deadline; six small request kinds, so queue-wait, render and \
       transport matter" );
  ]

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

let end_to_end =
  [
    e2e "cpu_ms_per_op" "ms" Lower 0.25;
    e2e "setup_s" "s" Lower 0.25;
  ]

(* Statuses the daemon can answer with (Gpu_serve.Protocol.status). *)
let serve_statuses =
  [ "ok"; "error"; "timeout"; "overloaded"; "shutting_down"; "malformed" ]

let per_layer =
  [
    layer "throughput_ops_s" "1/s" Higher;
    layer "latency_p50_ms" "ms" Lower;
    layer "setup_wall_s" "s" Lower;
    layer "peak_rss_mb" "MB" Lower;
    layer "bench.op_ms" "ms" Lower;
    layer "bench.other_ms_per_op" "ms" Lower;
    layer "bench.trace_overhead_pct" "%" Lower;
    layer "ops_failed_ratio" "ratio" Lower;
    layer "mean_abs_err_pct" "%" Lower;
    layer "bracket_violations" "count" Lower;
    layer "kernel.compile_ms_per_op" "ms" Lower;
    layer "hw.extract_us_per_op" "us" Lower;
    layer "sim.self_ms_per_op" "ms" Lower;
    layer "sim.warp_instrs" "count" Lower;
    layer "sim.winstr_per_s" "1/s" Higher;
    layer "sim.minor_words_per_winstr" "words" Lower;
    layer "microbench.lookup_ms_per_op" "ms" Lower;
    layer "microbench.calibrate_s" "s" Lower;
    layer "microbench.instr_smem_runs" "count" Lower;
    layer "microbench.gmem_points" "count" Lower;
    layer "microbench.cache_loads" "count" Lower;
    layer "microbench.timed_gmem_points" "count" Lower;
    layer "core.model_ms_per_op" "ms" Lower;
    layer "timing.self_ms_per_op" "ms" Lower;
    layer "timing.events" "count" Lower;
    layer "timing.events_per_s" "1/s" Higher;
    layer "timing.minor_words_per_event" "words" Lower;
    layer "serve.queue_wait_ms_p50" "ms" Lower;
    layer "serve.queue_wait_ms_p95" "ms" Lower;
    layer "serve.compute_ms_p50" "ms" Lower;
    layer "serve.render_ms_p50" "ms" Lower;
    layer "serve.other_ms_p50" "ms" Lower;
    layer "serve.transport_ms_p50" "ms" Lower;
  ]
  @ List.map (fun s -> layer ("serve.status." ^ s) "count" Lower)
      serve_statuses
  @ [
      layer "gc.minor_mwords_per_op" "Mwords" Lower;
      layer "gc.major_collections_per_op" "count" Lower;
    ]

let metrics ~trace = if trace then per_layer else end_to_end

(* Names: a letter or digit first, then letters, digits, '_', '.', '-';
   at most 64 characters. *)
let valid_name s =
  let n = String.length s in
  let alnum = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
    | _ -> false
  in
  n >= 1 && n <= 64 && alnum s.[0]
  && String.for_all (fun c -> alnum c || c = '_' || c = '.' || c = '-') s

(* Units: at most 16 of letters, digits, '_', '/', '%', '.', '-'. *)
let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-'
           ->
           true
         | _ -> false)
       s
