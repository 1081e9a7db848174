(* Workload [validation]: the 14 configurations that
   [bench/main.exe -- validation] prints, each one operation of
   [Workflow.analyze_result ~measure:true], run by one caller in a closed
   loop over whole passes.  The seed picks the SpMV matrix
   ([Spmv.qcd_like ~seed]) and the order of each pass; every kernel,
   launch, sample and input buffer comes from the workloads' public
   constructors, with the values their own [analyze] functions use. *)

module Workflow = Gpu_model.Workflow
module Model = Gpu_model.Model
module W = Gpu_workloads

let spec = Gpu_hw.Spec.gtx285

type config = {
  label : string;  (** as [bench/main.exe -- validation] prints it *)
  launch : Layered.launch;
  args : unit -> (string * int32 array) list;  (** fresh buffers *)
}

let ones n = Array.make n (Int32.bits_of_float 1.0)
let zeros n = Array.make n 0l

let config label ~kernel ~grid ~block ~sample args =
  { label; launch = { Layered.spec; kernel; grid; block; sample }; args }

let configs ~seed =
  let matmul tile =
    let n = 1024 in
    config
      (Printf.sprintf "matmul %dx%d" tile tile)
      ~kernel:(W.Matmul.kernel ~n ~tile) ~grid:(W.Matmul.grid ~n ~tile)
      ~block:W.Matmul.threads_per_block ~sample:(Some 4)
      (fun () -> [ ("a", zeros (n * n)); ("b", zeros (n * n)); ("c", zeros (n * n)) ])
  in
  let tridiag label padded =
    let nsys = 512 and n = 512 in
    config label ~kernel:(W.Tridiag.kernel ~n ~padded) ~grid:nsys
      ~block:(W.Tridiag.threads ~n) ~sample:(Some 2) (fun () ->
        let words = nsys * n in
        List.map
          (fun p -> (p, if p = "b" then ones words else zeros words))
          [ "a"; "b"; "c"; "d"; "x" ])
  in
  let matrix = W.Spmv.qcd_like ~seed () in
  let spmv fmt =
    let grid, block = W.Spmv.launch matrix fmt in
    config
      ("spmv " ^ W.Spmv.format_name fmt)
      ~kernel:(W.Spmv.kernel matrix fmt) ~grid ~block ~sample:None (fun () ->
        W.Spmv.args matrix fmt (Array.make (W.Spmv.rows matrix) 1.0))
  in
  let reduce label variant =
    let threads = 128 and blocks = 4096 in
    config label
      ~kernel:(W.Reduce.kernel ~threads variant)
      ~grid:blocks ~block:threads ~sample:(Some 2) (fun () ->
        [
          ("input", ones (blocks * W.Reduce.elements_per_block ~threads));
          ("partials", zeros blocks);
        ])
  in
  let scan =
    let threads = 128 and blocks = 8192 in
    config "scan" ~kernel:(W.Scan.scan_kernel ~threads) ~grid:blocks
      ~block:threads ~sample:(Some 2) (fun () ->
        [
          ("input", ones (blocks * threads));
          ("output", zeros (blocks * threads));
          ("sums", zeros blocks);
        ])
  in
  let transpose v =
    let n = 1024 in
    config
      ("transpose " ^ W.Transpose.variant_name v)
      ~kernel:(W.Transpose.kernel ~n v) ~grid:(W.Transpose.grid ~n)
      ~block:W.Transpose.threads_per_block ~sample:(Some 2) (fun () ->
        [ ("input", zeros (n * n)); ("output", zeros (n * n)) ])
  in
  [ matmul 8; matmul 16; matmul 32;
    tridiag "cyclic reduction" false; tridiag "cyclic reduction NBC" true;
    spmv W.Spmv.Ell; spmv W.Spmv.Bell_im; spmv W.Spmv.Bell_imiv;
    reduce "reduce interleaved" W.Reduce.Interleaved;
    reduce "reduce sequential" W.Reduce.Sequential;
    scan;
    transpose W.Transpose.Naive; transpose W.Transpose.Tiled;
    transpose W.Transpose.Tiled_padded ]

let analyze (c : config) ~args =
  let l = c.launch in
  Workflow.analyze_result ~spec:l.spec ?sample:l.sample ~measure:true
    ~grid:l.grid ~block:l.block ~args l.kernel

let finite_positive x = Float.is_finite x && x > 0.0

(* Accuracy over the configurations, as [bench/main.exe -- validation]
   computes it: mean |pred - meas| / meas in percent, and the number of
   configurations outside pred <= meas <= no-overlap bound. *)
let accuracy (refs : (config * Workflow.report) list) =
  let errs, violations =
    List.fold_left
      (fun (errs, v) (_, (r : Workflow.report)) ->
        let a = r.Workflow.analysis in
        let meas = (Option.get r.Workflow.measured).Gpu_timing.Engine.seconds in
        let err = Float.abs (Option.get (Workflow.prediction_error r)) in
        let outside =
          a.Model.predicted_seconds > meas || meas > a.Model.no_overlap_seconds
        in
        (err :: errs, if outside then v + 1 else v))
      ([], 0) refs
  in
  (100.0 *. Stats.mean errs, violations)

let run (t : Run.t) =
  let module T = Gpu_microbench.Tables in
  let calibrate_s, child = Run.calibrate_in_child t [ "baseline" ] in
  let c0 = T.counters () in
  ignore (T.for_spec spec);
  let configs = configs ~seed:t.seed in
  (* Warm-up pass: measures every lazy global-memory point before timing
     and gives each configuration its reference report. *)
  let refs =
    List.map
      (fun c ->
        match analyze c ~args:(c.args ()) with
        | Ok (r, _) -> (c, Some r)
        | Error d ->
          Run.note "%s: %s" c.label (Gpu_diag.Diag.to_string d);
          (c, None))
      configs
  in
  let c_setup = T.counters () in
  let setup_wall_s = Run.now () -. t.started in
  let setup_cpu_s = Run.cpu_now () +. Run.children_cpu () in
  let reference c = List.assq c refs in
  let order pass = Run.shuffle (Random.State.make [| t.seed; pass |]) configs in
  let untraced_op c () =
    let args = c.args () in
    fun () ->
      match (analyze c ~args, reference c) with
      | Ok (r, _), Some ref_ ->
        finite_positive r.Workflow.analysis.Model.predicted_seconds
        && Layered.fingerprint_of_report r = Layered.fingerprint_of_report ref_
      | Ok _, None | Error _, _ -> false
  in
  let untraced =
    Run.timed_passes ~seconds:t.seconds (fun p ->
        List.map untraced_op (order p))
  in
  let measured = List.filter_map (fun (c, r) -> Option.map (fun r -> (c, r)) r) refs in
  let mean_err, violations =
    match measured with [] -> (0.0, 0) | _ -> accuracy measured
  in
  Run.say "validation seed=%d: %d ops over %.2f s (passes of %d configs)"
    t.seed (Run.ops untraced) untraced.wall_s (List.length configs);
  let e2e, wall =
    Run.end_to_end ~setup_cpu_s ~setup_wall_s ~rss:(Run.peak_rss_mb "self")
      untraced
  in
  Run.say "  mean_abs_err_pct     %12.4f %%      (n=%d configs)" mean_err
    (List.length measured);
  Run.say "  bracket_violations   %12d        (n=%d configs)" violations
    (List.length measured);
  List.iter
    (fun (c, (r : Workflow.report)) ->
      let a = r.Workflow.analysis in
      Run.say
        "    %-24s pred %8.4f ms   bound %8.4f ms   meas %8.4f ms   err %+6.1f%%"
        c.label
        (1e3 *. a.Model.predicted_seconds)
        (1e3 *. a.Model.no_overlap_seconds)
        (1e3 *. (Option.get r.Workflow.measured).Gpu_timing.Engine.seconds)
        (100.0 *. Option.get (Workflow.prediction_error r)))
    measured;
  if not t.trace then begin
    Run.note_timed_calibration
      (Run.in_process_calib ~child ~before:c0 ~setup:c_setup
         ~after:(T.counters ()));
    (Run.ops untraced, untraced.failed, e2e)
  end
  else begin
    (* The layer-by-layer path must reproduce the warm-up's analyze_result
       report bit for bit. *)
    let warp_instrs = ref 0 and events = ref 0 in
    let traced_op c () =
      let args = c.args () in
      fun rec_ ~op ->
        match (Layered.analyze rec_ ~op c.launch ~args, reference c) with
        | Ok r, Some ref_ ->
          warp_instrs := !warp_instrs + r.Layered.warp_instrs;
          events := !events + r.Layered.events;
          finite_positive r.Layered.predicted_seconds
          && r.Layered.fingerprint = Layered.fingerprint_of_report ref_
        | Ok _, None | Error _, _ -> false
    in
    let tr =
      Run.traced_passes ~seconds:t.seconds (fun p ->
          List.map traced_op (order p))
    in
    let calib =
      Run.in_process_calib ~child ~before:c0 ~setup:c_setup
        ~after:(T.counters ())
    in
    Run.note_timed_calibration calib;
    let attempted, failed, common = Run.traced_common t ~untraced tr in
    let n = float_of_int (Run.ops tr.phase) in
    let per_op_ms = Run.self_ms_per_op tr in
    let winstr = float_of_int !warp_instrs and ev = float_of_int !events in
    ( attempted,
      failed,
      common @ wall
      @ [
          ("mean_abs_err_pct", mean_err);
          ("bracket_violations", float_of_int violations);
          ("kernel.compile_ms_per_op", per_op_ms "kernel");
          ("hw.extract_us_per_op", 1e3 *. per_op_ms "hw");
          ("sim.self_ms_per_op", per_op_ms "sim");
          ("sim.warp_instrs", winstr /. n);
          ("sim.winstr_per_s", winstr /. (n *. per_op_ms "sim" /. 1e3));
          ( "sim.minor_words_per_winstr",
            Spans.minor_words_of tr.spans "sim" /. winstr );
          ("microbench.lookup_ms_per_op", per_op_ms "microbench");
          ("core.model_ms_per_op", per_op_ms "core");
          ("timing.self_ms_per_op", per_op_ms "timing");
          ("timing.events", ev /. n);
          ("timing.events_per_s", ev /. (n *. per_op_ms "timing" /. 1e3));
          ( "timing.minor_words_per_event",
            Spans.minor_words_of tr.spans "timing" /. ev );
        ]
      @ Run.calib_values calib ~calibrate_s
      @ Run.not_exercised [ "serve." ] )
  end
