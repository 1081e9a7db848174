(* The traced analysis path: the same layer calls, in the same order and
   with the same arguments, that Gpu_model.Workflow.analyze_result makes
   for a measured analysis, each wrapped in a span from the benchmark's
   side.  Span names are the layer (library) names. *)

module Workflow = Gpu_model.Workflow
module Model = Gpu_model.Model

type launch = {
  spec : Gpu_hw.Spec.t;
  kernel : Gpu_kernel.Ir.t;
  grid : int;
  block : int;
  sample : int option;
}

(* What two analyses of the same inputs must agree on bit for bit: the
   prediction, the measured cycles and every statistics counter. *)
type fingerprint = {
  predicted_bits : int64;
  measured_cycles : int option;
  stages : Gpu_sim.Stats.stage array;
}

let fingerprint_of_report (r : Workflow.report) =
  {
    predicted_bits =
      Int64.bits_of_float r.Workflow.analysis.Model.predicted_seconds;
    measured_cycles =
      Option.map (fun (m : Gpu_timing.Engine.result) -> m.cycles) r.measured;
    stages = Gpu_sim.Stats.stages r.stats;
  }

type result = {
  predicted_seconds : float;
  fingerprint : fingerprint;
  warp_instrs : int;  (** interpreted, i.e. of the simulated blocks *)
  events : int;  (** trace events handed to the timing engine *)
}

let warp_instrs stats =
  Array.fold_left
    (fun acc (st : Gpu_sim.Stats.stage) ->
      Array.fold_left ( + ) acc st.Gpu_sim.Stats.issued)
    0
    (Gpu_sim.Stats.stages stats)

let analyze rec_ ~op (l : launch) ~args =
  let span name f = Spans.with_ rec_ ~op name f in
  let ( let* ) = Result.bind in
  let spec = l.spec and grid = l.grid and block = l.block in
  let* k =
    span "kernel" (fun () -> Gpu_kernel.Compile.compile_result l.kernel)
  in
  let occupancy = span "hw" (fun () -> Workflow.occupancy_of ~spec ~block k) in
  let block_ids =
    match l.sample with
    | Some n when n < grid -> Some (List.init (max n 0) Fun.id)
    | Some _ | None -> None
  in
  let* r =
    span "sim" (fun () ->
        Gpu_sim.Sim.run_result ~collect_trace:true ?block_ids ~spec ~grid
          ~block ~args k)
    |> Result.map_error (fun (f : Gpu_sim.Sim.failure) -> f.diag)
  in
  let tables =
    span "microbench" (fun () -> Gpu_microbench.Tables.for_spec spec)
  in
  let* analysis =
    span "core" (fun () ->
        Model.analyze_result
          {
            Model.in_spec = spec;
            tables;
            stats = r.stats;
            scale = Gpu_sim.Sim.scale_factor r;
            in_grid = grid;
            in_block = block;
            in_occupancy = occupancy;
            blocks_run = r.blocks_run;
          })
  in
  let traces, measured =
    span "timing" (fun () ->
        let traces = Workflow.replicate_traces ~grid r.traces in
        let homogeneous =
          r.blocks_run < grid && Workflow.traces_homogeneous r.traces
        in
        ( traces,
          Gpu_timing.Engine.run ~homogeneous ~spec
            ~max_resident_blocks:occupancy.Gpu_hw.Occupancy.blocks traces ))
  in
  Ok
    {
      predicted_seconds = analysis.Model.predicted_seconds;
      fingerprint =
        {
          predicted_bits = Int64.bits_of_float analysis.Model.predicted_seconds;
          measured_cycles = Some measured.Gpu_timing.Engine.cycles;
          stages = Gpu_sim.Stats.stages r.stats;
        };
      warp_instrs = warp_instrs r.stats;
      events =
        Array.fold_left
          (fun acc b -> acc + Gpu_sim.Trace.event_count b)
          0 traces;
    }
