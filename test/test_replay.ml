(* Bit-identity pins for the timing replay engine.  Every field of
   [Engine.result] is digested: cycles, seconds, the four busy counters,
   the simulated SM and cluster counts, the conservation counters, the
   per-stage busy attribution and the sampled-replay bracket.

   Two sources of traces are replayed:
   - the 14 validation configurations (bench/main.exe -- validation) at
     the same test size as test_golden.ml, each replayed four ways: as
     the workflow measures it, as a full heterogeneous replay, with a
     timeline recording (per-stage busy ticks and the slice count), and
     on a seeded 30 % cluster sample;
   - the synthetic heterogeneous grid of the replay experiment
     (bench/main.exe -- replay), full and at f = 0.1, on the serial and
     the parallel cluster path.

   The expected values were generated once, before any change to the
   replay engine's internals, and must never be edited to make a change
   pass: the engine's schedule is what every measured time is made of. *)

module Sim = Gpu_sim.Sim
module Trace = Gpu_sim.Trace
module Engine = Gpu_timing.Engine
module Workflow = Gpu_model.Workflow
module Pool = Gpu_parallel.Pool
module I = Gpu_isa.Instr
module W = Gpu_workloads

let spec = Gpu_hw.Spec.gtx285

(* --- canonical serialization ------------------------------------------- *)

let add_int b i =
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ' '

let add_result b (r : Engine.result) =
  List.iter (add_int b)
    [
      r.cycles;
      Int64.to_int (Int64.bits_of_float r.seconds);
      r.alu_busy_cycles; r.smem_busy_cycles; r.atomic_busy_cycles;
      r.gmem_busy_cycles; r.sms_simulated; r.clusters_simulated;
      r.warps_launched; r.warps_retired; r.blocks_retired;
      r.blocks_unlaunched;
    ];
  add_int b (Array.length r.stages_busy);
  Array.iter
    (fun (s : Engine.stage_busy) ->
      List.iter (add_int b)
        [ s.alu_ticks; s.smem_ticks; s.atomic_ticks; s.gmem_ticks ])
    r.stages_busy;
  (match r.sampled with
  | None -> Buffer.add_string b "exact"
  | Some s ->
    List.iter (add_int b)
      [
        s.clusters_sampled; s.clusters_total; s.blocks_sampled;
        s.cycles_low; s.cycles_high;
      ]);
  Buffer.add_char b '\n'

let digest b = Digest.to_hex (Digest.string (Buffer.contents b))

(* --- the 14 validation configurations at test size ---------------------- *)

(* The same launches and inputs as test_golden.ml. *)
type config = {
  label : string;
  kernel : Gpu_kernel.Ir.t;
  grid : int;
  block : int;
  args : unit -> (string * int32 array) list;
}

let sample = 2

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

(* The four replays of one configuration's sampled traces, replicated
   onto its grid exactly as the workflow does. *)
let config_digest c =
  let k = Gpu_kernel.Compile.compile c.kernel in
  let r =
    Sim.run ~collect_trace:true ~block_ids:(List.init sample Fun.id) ~spec
      ~grid:c.grid ~block:c.block ~args:(c.args ()) k
  in
  let max_resident_blocks =
    (Workflow.occupancy_of ~spec ~block:c.block k).Gpu_hw.Occupancy.blocks
  in
  let traces = Workflow.replicate_traces ~grid:c.grid r.traces in
  let run ?homogeneous ?timeline ?sample () =
    Engine.run ?homogeneous ?timeline ?sample ~spec ~max_resident_blocks
      traces
  in
  let b = Buffer.create 1024 in
  add_result b
    (run
       ~homogeneous:
         (r.blocks_run < c.grid && Workflow.traces_homogeneous r.traces)
       ());
  add_result b (run ~homogeneous:false ());
  let tl = Gpu_obs.Timeline.create ~capacity:1024 () in
  add_result b (run ~homogeneous:false ~timeline:tl ());
  add_int b (Gpu_obs.Timeline.added tl);
  add_result b
    (run ~homogeneous:false
       ~sample:{ Engine.target = Engine.Fraction 0.3; seed = 3 }
       ());
  digest b

let expected_configs =
  [
    ("matmul 8x8", "1fd25e4afd65ef6f689b9eb3d43ec7b1");
    ("matmul 16x16", "6362c065834f5c8e94e1f5b47e01f7d3");
    ("matmul 32x32", "9c7a5cb636036a4a9e7782bd57ad31f7");
    ("cyclic reduction", "1bd61f9d4c7249a64157f7e0096cf7e2");
    ("cyclic reduction NBC", "3b18b791abfc07f87642568ebfd34287");
    ("spmv ELL", "742da807d9a7533fc902275fed4d2812");
    ("spmv BELL+IM", "d0b7e4734f28aef0cc188b97637bf83d");
    ("spmv BELL+IMIV", "37742224aaa7568e8aef7b36fb9bcc66");
    ("reduce interleaved", "7128fdd25f35729734a7ccdc5a91e256");
    ("reduce sequential", "d6497e1ecb387e003f22c8d29713a6b2");
    ("scan", "d0f60ea26cdb337cc441b622e8926529");
    ("transpose naive", "fcba696afad2711a55545f7a64efd16d");
    ("transpose tiled", "0823808ce45c26bfe95fc6a292ab5c1a");
    ("transpose tiled_padded", "62b618a7ad0cb158832a78348bca5df2");
  ]

let test_validation_replays () =
  Pool.set_jobs 2;
  let actual = List.map (fun c -> (c.label, config_digest c)) configs in
  Alcotest.(check (list (pair string string)))
    "replay digests" expected_configs actual

(* --- the replay experiment's heterogeneous grid ------------------------- *)

(* The grid of bench/main.exe -- replay: every block has a distinct warp
   count and distinct trace lengths, a barrier on every third block and a
   shared+global tail. *)
let heterogeneous_grid =
  let alu dst srcs cls = { Trace.cls; dst; srcs; mem = Trace.No_mem; bar = false } in
  let chain n = Array.init n (fun _ -> alu 10 [| 10 |] I.Class_ii) in
  let bar = { (alu Trace.no_reg [||] I.Class_ctrl) with Trace.bar = true } in
  let warp_body b w =
    let work = chain (60 + (13 * b mod 120) + (7 * w)) in
    let tail =
      [|
        { Trace.cls = I.Class_mem; dst = 4; srcs = [||];
          mem = Trace.Smem (1 + (w mod 3)); bar = false };
        { Trace.cls = I.Class_mem; dst = 5; srcs = [| 4 |];
          mem = Trace.Gmem_load [| (64 * b, 64); (4096 + (64 * w), 64) |];
          bar = false };
        alu Trace.no_reg [||] I.Class_ii;
      |]
    in
    if b mod 3 = 0 then Array.concat [ [| bar |]; work; tail ]
    else Array.append work tail
  in
  Array.init 1000 (fun b ->
      { Trace.block = b;
        warps = Array.init (1 + (b mod 5)) (fun w -> warp_body b w) })

let grid_digest ~jobs ?sample () =
  Pool.set_jobs jobs;
  let b = Buffer.create 256 in
  add_result b
    (Engine.run ~homogeneous:false ?sample ~spec ~max_resident_blocks:8
       heterogeneous_grid);
  digest b

let expected_grid =
  [
    ("full", "dda18b8ea6ef43b76ebe9767e0d4ec48");
    ("sampled f=0.1", "b86443f2696914a46e538e2385eed026");
  ]

let test_heterogeneous_grid () =
  let sampled = { Engine.target = Engine.Fraction 0.1; seed = 0 } in
  let on jobs =
    [
      ("full", grid_digest ~jobs ());
      ("sampled f=0.1", grid_digest ~jobs ~sample:sampled ());
    ]
  in
  Alcotest.(check (list (pair string string))) "serial" expected_grid (on 1);
  Alcotest.(check (list (pair string string))) "parallel" expected_grid (on 2)

let () =
  Alcotest.run "replay"
    [
      ( "replay identity",
        [
          Alcotest.test_case "validation replays" `Quick
            test_validation_replays;
          Alcotest.test_case "heterogeneous grid" `Quick
            test_heterogeneous_grid;
        ] );
    ]
