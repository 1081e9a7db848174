(* Bit-identity pins for the functional simulator and everything computed
   from it.  Each of the 14 validation configurations (bench/main.exe --
   validation), shrunk to test size and sampled, is run twice: once
   through [Sim.run] with traces, digesting every statistics counter
   (per-pc site arrays included), every trace event and the output
   buffers; once through [Workflow.analyze_result ~measure:true],
   digesting the statistics again, the bits of the prediction and the
   engine's cycles.  A handful of calibration microbenchmarks pin
   [Runner.measure_cycles] on three device generations.

   The expected values were generated once and must never be edited to
   make a change pass: any interpreter, coalescer, bank-analyzer or
   statistics change that moves one of them changes what the model
   predicts. *)

module Sim = Gpu_sim.Sim
module Stats = Gpu_sim.Stats
module Trace = Gpu_sim.Trace
module Workflow = Gpu_model.Workflow
module Model = Gpu_model.Model
module Runner = Gpu_microbench.Runner
module Codegen = Gpu_microbench.Codegen
module W = Gpu_workloads

let spec = Gpu_hw.Spec.gtx285

(* --- canonical serialization ------------------------------------------- *)

let add_int b i =
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ' '

let add_ints b a =
  add_int b (Array.length a);
  Array.iter (add_int b) a;
  Buffer.add_char b '\n'

let add_stage b (s : Stats.stage) =
  add_ints b s.issued;
  List.iter (add_int b)
    [
      s.mads; s.smem_accesses; s.smem_txns; s.smem_ideal_txns;
      s.atomic_accesses; s.atomic_txns; s.atomic_ideal_txns;
      s.gmem_accesses; s.gmem_requested_bytes; s.gmem_transferred_bytes;
      s.barriers; s.active_warp_slots;
    ];
  (* the assoc list in its own order, which is part of the record *)
  List.iter (fun (size, n) -> add_int b size; add_int b n) s.gmem_txns;
  Buffer.add_char b '\n';
  add_ints b s.site_issued;
  add_ints b s.site_smem_txns;
  add_ints b s.site_atomic_txns;
  add_ints b s.site_gmem_bytes

let add_stats b st = Array.iter (add_stage b) (Stats.stages st)

let add_event b (e : Trace.event) =
  add_int b (Stats.class_index e.cls);
  add_int b e.dst;
  add_ints b e.srcs;
  (match e.mem with
  | Trace.No_mem -> add_int b 0
  | Trace.Smem n -> add_int b 1; add_int b n
  | Trace.Smem_atomic n -> add_int b 2; add_int b n
  | Trace.Gmem_load txns | Trace.Gmem_store txns ->
    add_int b (match e.mem with Trace.Gmem_load _ -> 3 | _ -> 4);
    Array.iter (fun (base, size) -> add_int b base; add_int b size) txns);
  add_int b (if e.bar then 1 else 0)

let add_traces b traces =
  List.iter
    (fun (t : Trace.block_trace) ->
      add_int b t.block;
      Array.iter (fun w -> add_int b (Array.length w); Array.iter (add_event b) w)
        t.warps)
    traces

let add_buffers b args =
  List.iter
    (fun (name, words) ->
      Buffer.add_string b name;
      Array.iter (fun w -> add_int b (Int32.to_int w)) words)
    args

let digest b = Digest.to_hex (Digest.string (Buffer.contents b))

(* --- the 14 configurations at test size -------------------------------- *)

type config = {
  label : string;
  kernel : Gpu_kernel.Ir.t;
  grid : int;
  block : int;
  sample : int;
  args : unit -> (string * int32 array) list;  (* fresh buffers *)
}

(* Seeded single-precision inputs, so output digests exercise the ALU. *)
let floats seed n =
  let rng = Random.State.make [| seed |] in
  Array.init n (fun _ ->
      Int32.bits_of_float
        (Gpu_sim.Value.round_f32 (Random.State.float rng 2.0 -. 1.0)))

let zeros n = Array.make n 0l

let configs =
  let matmul tile =
    let n = 64 in
    {
      label = Printf.sprintf "matmul %dx%d" tile tile;
      kernel = W.Matmul.kernel ~n ~tile;
      grid = W.Matmul.grid ~n ~tile;
      block = W.Matmul.threads_per_block;
      sample = 2;
      args =
        (fun () ->
          [ ("a", floats 1 (n * n)); ("b", floats 2 (n * n)); ("c", zeros (n * n)) ]);
    }
  in
  let tridiag label padded =
    let nsys = 8 and n = 64 in
    {
      label;
      kernel = W.Tridiag.kernel ~n ~padded;
      grid = nsys;
      block = W.Tridiag.threads ~n;
      sample = 2;
      args =
        (fun () ->
          let words = nsys * n in
          [
            ("a", floats 3 words); ("b", Array.make words (Int32.bits_of_float 4.0));
            ("c", floats 4 words); ("d", floats 5 words); ("x", zeros words);
          ]);
    }
  in
  let matrix =
    W.Spmv.generate ~seed:7 ~block_rows:256 ~offsets:W.Spmv.qcd_offsets ()
  in
  let spmv fmt =
    let grid, block = W.Spmv.launch matrix fmt in
    {
      label = "spmv " ^ W.Spmv.format_name fmt;
      kernel = W.Spmv.kernel matrix fmt;
      grid;
      block;
      sample = 2;
      args =
        (fun () ->
          W.Spmv.args matrix fmt
            (Array.init (W.Spmv.rows matrix) (fun i ->
                 Gpu_sim.Value.round_f32 (sin (float_of_int i)))));
    }
  in
  let reduce label variant =
    let threads = 128 and blocks = 8 in
    {
      label;
      kernel = W.Reduce.kernel ~threads variant;
      grid = blocks;
      block = threads;
      sample = 2;
      args =
        (fun () ->
          [
            ("input", floats 6 (blocks * W.Reduce.elements_per_block ~threads));
            ("partials", zeros blocks);
          ]);
    }
  in
  let scan =
    let threads = 128 and blocks = 8 in
    {
      label = "scan";
      kernel = W.Scan.scan_kernel ~threads;
      grid = blocks;
      block = threads;
      sample = 2;
      args =
        (fun () ->
          [
            ("input", floats 7 (blocks * threads));
            ("output", zeros (blocks * threads));
            ("sums", zeros blocks);
          ]);
    }
  in
  let transpose v =
    let n = 64 in
    {
      label = "transpose " ^ W.Transpose.variant_name v;
      kernel = W.Transpose.kernel ~n v;
      grid = W.Transpose.grid ~n;
      block = W.Transpose.threads_per_block;
      sample = 2;
      args = (fun () -> [ ("input", floats 8 (n * n)); ("output", zeros (n * n)) ]);
    }
  in
  [
    matmul 8; matmul 16; matmul 32;
    tridiag "cyclic reduction" false; tridiag "cyclic reduction NBC" true;
    spmv W.Spmv.Ell; spmv W.Spmv.Bell_im; spmv W.Spmv.Bell_imiv;
    reduce "reduce interleaved" W.Reduce.Interleaved;
    reduce "reduce sequential" W.Reduce.Sequential;
    scan;
    transpose W.Transpose.Naive; transpose W.Transpose.Tiled;
    transpose W.Transpose.Tiled_padded;
  ]

(* Digest of the traced functional simulation: statistics, traces and the
   output buffers. *)
let sim_digest c =
  let k = Gpu_kernel.Compile.compile c.kernel in
  let args = c.args () in
  let r =
    Sim.run ~collect_trace:true ~block_ids:(List.init c.sample Fun.id) ~spec
      ~grid:c.grid ~block:c.block ~args k
  in
  let b = Buffer.create 4096 in
  add_stats b r.stats;
  add_traces b r.traces;
  add_buffers b args;
  digest b

(* Digest of the measured analysis: its statistics, the bits of the
   prediction and the engine's cycles. *)
let analysis_digest c =
  match
    Workflow.analyze_result ~spec ~sample:c.sample ~measure:true ~grid:c.grid
      ~block:c.block ~args:(c.args ()) c.kernel
  with
  | Error d -> Alcotest.failf "%s: %s" c.label (Gpu_diag.Diag.to_string d)
  | Ok (r, _) ->
    let b = Buffer.create 4096 in
    add_stats b r.stats;
    Buffer.add_string b
      (Int64.to_string (Int64.bits_of_float r.analysis.Model.predicted_seconds));
    Buffer.add_char b ' ';
    add_int b (Option.get r.measured).Gpu_timing.Engine.cycles;
    digest b

let expected =
  [
    ( "matmul 8x8",
      "aa9be663afa702610702c3025357ca81",
      "8c87c0aff7a1db5008a3f4df2cfecba3" );
    ( "matmul 16x16",
      "b7c92c88beeff8e5760c273c0079b5f3",
      "bfb47c42615a58c9c6dbe5c3bdc903de" );
    ( "matmul 32x32",
      "88856abbecb9ac00030a57606af21dfc",
      "6a17de44744364c47b3e02cc13eed320" );
    ( "cyclic reduction",
      "b73c4a0ff9fbefb7488e931042caef9a",
      "67eed150942b3c3d406dc644511ef744" );
    ( "cyclic reduction NBC",
      "f4dbd6a22cffb62ea9ec8839fe14bdc0",
      "4f7aff03eed0e00d9469ecf17b94ce7a" );
    ( "spmv ELL",
      "50bc20efde5d381d374fa34e2efe557e",
      "e1817aafbe586e7cb41d4fe35674ec3e" );
    ( "spmv BELL+IM",
      "832ec2e82a250c06763e504de3e2461a",
      "3f294cfa0bbdcb6b3f66dc65d54d9e9d" );
    ( "spmv BELL+IMIV",
      "d2d71e2e3c4b76364eab34beb8e17097",
      "3ab424d455b300b3cfed054f813841be" );
    ( "reduce interleaved",
      "3abf2a46bf6850715a37051e859058e7",
      "2f3897274eeab57f658d949ff1c38d80" );
    ( "reduce sequential",
      "2ae5e0a4ec75835e55eddf5d597eab1b",
      "3b5586221f3d5db5510306acb0a3da39" );
    ( "scan",
      "2be48c60e95fa108d3f36424e789a0f5",
      "80fbad0aae9f5948f870b5d19e9fc954" );
    ( "transpose naive",
      "54774350c4b759bdfbac5e30cc2462b7",
      "7fde1c074f8e33a50ee1c392ba342ded" );
    ( "transpose tiled",
      "639190690d4776fc0e9c7100bcacc8d0",
      "961ed5d228db307eea59118763842bf8" );
    ( "transpose tiled_padded",
      "93a771194fc7cb34c558b332757e1be0",
      "c7fa325c7ad2652a05246cf5df7079de" );
  ]

let test_validation_digests () =
  let actual =
    List.map (fun c -> (c.label, sim_digest c, analysis_digest c)) configs
  in
  Alcotest.(check (list (triple string string string)))
    "validation digests" expected actual

(* --- calibration points ------------------------------------------------- *)

let calibration_points spec =
  let chain cls warps =
    let k =
      Runner.wrap ~param_regs:[] ~smem_bytes:0
        (Codegen.instruction_chain ~cls ~n:64)
    in
    Runner.measure_cycles ~spec ~grid:1 ~block:(32 * warps) ~args:[] k
  in
  let smem warps =
    let threads = 32 * warps in
    let program, smem_bytes = Codegen.shared_copy ~threads ~n:32 in
    Runner.measure_cycles ~spec ~grid:1 ~block:threads ~args:[]
      (Runner.wrap ~param_regs:[] ~smem_bytes program)
  in
  let gmem blocks threads txns_per_thread =
    let program, words =
      Codegen.global_stream ~blocks ~threads ~txns_per_thread
    in
    Runner.measure_cycles ~spec ~grid:blocks ~block:threads
      ~args:[ ("buf", Array.make words 0l) ]
      ~max_resident:spec.Gpu_hw.Spec.max_blocks_per_sm
      (Runner.wrap ~param_regs:[ ("buf", 0) ] ~smem_bytes:0 program)
  in
  [
    chain Gpu_isa.Instr.Class_i 1; chain Gpu_isa.Instr.Class_ii 4;
    chain Gpu_isa.Instr.Class_iii 8; chain Gpu_isa.Instr.Class_iv 2;
    smem 1; smem 6; gmem 8 64 4; gmem 30 128 2;
  ]

let expected_cycles =
  [
    ("gtx285", [ 1576; 1604; 4212; 4156; 2024; 2746; 754; 974 ]);
    ("volta-like", [ 264; 266; 1040; 265; 790; 915; 486; 486 ]);
    ("ampere-like", [ 264; 266; 1040; 265; 918; 1043; 539; 539 ]);
  ]

let test_calibration_cycles () =
  let actual =
    List.map
      (fun (name, spec) -> (name, calibration_points spec))
      [
        ("gtx285", Gpu_hw.Spec.gtx285);
        ("volta-like", Gpu_hw.Spec.volta_like);
        ("ampere-like", Gpu_hw.Spec.ampere_like);
      ]
  in
  Alcotest.(check (list (pair string (list int))))
    "measure_cycles" expected_cycles actual

let () =
  Alcotest.run "golden"
    [
      ( "bit identity",
        [
          Alcotest.test_case "validation digests" `Quick
            test_validation_digests;
          Alcotest.test_case "calibration cycles" `Quick
            test_calibration_cycles;
        ] );
    ]
