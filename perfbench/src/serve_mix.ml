(* Workload [serve-mix]: request/response on a [gpuperf serve --port 0]
   daemon started in set-up with default flags.  One client process (this
   one) drives 2 connections in a closed loop with no deadline: each
   connection sends its next request only after the previous response
   line arrived.  Six request kinds cycle in seeded order; the seed also
   draws the histogram skew and the reduce variant.  Per-layer numbers
   come from each response's wire [stage_us]; after the timed phase every
   response is checked against the same workload analysis recomputed
   in-process. *)

module P = Gpu_serve.Protocol
module Client = Gpu_serve.Client
module Jsonx = Gpu_report.Jsonx
module Render = Gpu_report.Render
module W = Gpu_workloads

let connections = 2

(* Requests carry no deadline; this only bounds how long the client waits
   for a response line before counting the request as failed. *)
let response_timeout_s = 120.0

type kind = Histogram | Degree | Reduce | Tridiag | Matmul | Histogram_html

let kinds = [ Histogram; Degree; Reduce; Tridiag; Matmul; Histogram_html ]
let skews = [| 0.0; 0.5; 0.8 |]

let request ?(skew = 0.8) ?(atomic = false) kind =
  let req ?(device = "baseline") ?(format = P.Json) ?(measure = false) params =
    { P.id = ""; params; device; format; deadline_ms = None; measure;
      sample = None }
  in
  match kind with
  | Histogram -> req (P.Histogram { h_blocks = 256; bins = 64; skew })
  | Degree -> req (P.Degree { d_blocks = 256; nodes = 64; hub = 0.3 })
  | Reduce -> req (P.Reduce { r_blocks = 512; r_atomic = atomic })
  | Tridiag ->
    req ~format:P.Md (P.Tridiag { nsys = 512; n = 512; padded = false })
  | Matmul -> req ~measure:true (P.Matmul { n = 128; tile = 16 })
  | Histogram_html ->
    req ~device:"volta-like" ~format:P.Html
      (P.Histogram { h_blocks = 256; bins = 64; skew = 0.8 })

(* Every distinct request the mix can send, for the warm-up pass. *)
let distinct =
  List.concat_map
    (function
      | Histogram ->
        List.map (fun skew -> request ~skew Histogram) (Array.to_list skews)
      | Reduce ->
        [ request ~atomic:false Reduce; request ~atomic:true Reduce ]
      | k -> [ request k ])
    kinds

(* The seeded request sequence: cycles of a shuffled kind order. *)
let sequence ~seed =
  let rng = Random.State.make [| seed |] in
  let pending = ref [] and count = ref 0 in
  fun () ->
    if !pending = [] then pending := Run.shuffle rng kinds;
    let kind = List.hd !pending in
    pending := List.tl !pending;
    let r =
      match kind with
      | Histogram ->
        request ~skew:skews.(Random.State.int rng (Array.length skews)) kind
      | Reduce -> request ~atomic:(Random.State.bool rng) kind
      | k -> request k
    in
    incr count;
    { r with P.id = string_of_int !count }

(* --- the daemon ----------------------------------------------------------- *)

type daemon = { pid : int; port : int; mutable running : bool }

let start_daemon (t : Run.t) =
  let path name = Filename.concat t.work_dir name in
  let fd name =
    Unix.openfile (path name) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let out = fd "daemon.out" and err = fd "daemon.err" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process t.gpuperf
      [| t.gpuperf; "serve"; "--port"; "0" |]
      null out err
  in
  List.iter Unix.close [ out; err; null ];
  let deadline = Run.now () +. 60.0 in
  let rec wait_banner () =
    let text = Run.read_file (path "daemon.out") in
    match
      Scanf.sscanf_opt text "gpuperf serve: listening on %s@:%d" (fun _ p -> p)
    with
    | Some port -> { pid; port; running = true }
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "gpuperf serve exited before listening");
      if Run.now () > deadline then failwith "gpuperf serve did not start";
      Unix.sleepf 0.02;
      wait_banner ()
  in
  try wait_banner ()
  with e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    raise e

(* SIGTERM drains the daemon; wait for it, killing it after 30 s. *)
let stop_daemon d =
  if d.running then begin
  d.running <- false;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Run.now () +. 30.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Run.now () < deadline ->
      Unix.sleepf 0.02;
      wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()
  end

(* The daemon's counters, from the in-band metrics op (OpenMetrics
   text; counters end in [_total]). *)
let daemon_counters client =
  let line =
    match Client.send_line client {|{"op":"metrics"}|} with
    | Error d -> failwith (Gpu_diag.Diag.to_string d)
    | Ok () -> (
      match Client.recv_line ~timeout_s:response_timeout_s client with
      | Ok l -> l
      | Error d -> failwith (Gpu_diag.Diag.to_string d))
  in
  let text =
    match Result.to_option (Jsonx.parse line) with
    | Some j -> Option.bind (Jsonx.member "metrics" j) Jsonx.to_string
    | None -> None
  in
  let text = match text with Some s -> s | None -> failwith "metrics op" in
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ name; v ] when String.ends_with ~suffix:"_total" name ->
        Option.map
          (fun v -> (String.sub name 0 (String.length name - 6), v))
          (int_of_string_opt v)
      | _ -> None)
    (String.split_on_char '\n' text)

(* --- the recomputation ------------------------------------------------------ *)

(* The analysis the daemon runs for a request, in-process. *)
let analyze (req : P.request) =
  let spec = Option.get (P.device_of_name req.P.device) in
  let measure = req.P.measure and sample = req.P.sample in
  match req.P.params with
  | P.Matmul { n; tile } -> W.Matmul.analyze ~spec ~measure ?sample ~n ~tile ()
  | P.Tridiag { nsys; n; padded } ->
    W.Tridiag.analyze ~spec ~measure ?sample ~nsys ~n ~padded ()
  | P.Spmv { spmv_format } ->
    W.Spmv.analyze ~spec ~measure ?sample (W.Spmv.qcd_like ()) spmv_format
  | P.Reduce { r_blocks; r_atomic } ->
    W.Reduce.analyze ~spec ~measure ?sample ~blocks:r_blocks
      (if r_atomic then W.Reduce.Atomic else W.Reduce.Sequential)
  | P.Histogram { h_blocks; bins; skew } ->
    W.Histogram.analyze ~spec ~measure ?sample ~blocks:h_blocks ~bins ~skew ()
  | P.Degree { d_blocks; nodes; hub } ->
    W.Degree.analyze ~spec ~measure ?sample ~blocks:d_blocks ~nodes ~hub ()

(* What the response carries for a successful analysis: the JSON body, or
   the rendered report for md/html. *)
let expected_payload (req : P.request) report =
  let workload = P.workload_name req.P.params in
  match req.P.format with
  | P.Json -> Jsonx.encode (Render.report_json ~workload report)
  | (P.Md | P.Html) as f ->
    Render.render
      (if f = P.Md then Render.Md else Render.Html)
      {
        Render.workload;
        report;
        attribution = Gpu_report.Attribution.of_report report;
        whatif = [];
        ledger = [];
        ledger_warnings = [];
        regression = None;
        top = 5;
      }

let payload (resp : P.response) =
  match (resp.P.body, resp.P.rendered) with
  | Some b, _ -> Some (Jsonx.encode b)
  | None, Some s -> Some s
  | None, None -> None

let key (req : P.request) = P.encode_request { req with P.id = "" }

(* --- the run ---------------------------------------------------------------- *)

type sample = {
  req : P.request;
  client_ms : float;
  resp : (P.response, string) result;
}

let stage_ms (resp : P.response) name =
  Option.value ~default:0.0 (List.assoc_opt name resp.P.stage_breakdown)
  /. 1e3

let compute_stages =
  [ "compile"; "extract"; "functional-sim"; "calibrate"; "model";
    "timing-replay" ]

let exchange client req =
  let a = Run.now () in
  let r = Client.request ~timeout_s:response_timeout_s client req in
  let b = Run.now () in
  { req; client_ms = (b -. a) *. 1e3;
    resp = Result.map_error Gpu_diag.Diag.to_string r }

(* Windows of two whole cycles of the kind sequence. *)
let window = 2 * List.length kinds

(* The daemon's CPU milliseconds per request in each window of [window]
   consecutive completions, from its CPU time [cpu0] at the start and
   [cpus], its CPU time at each completion; a trailing partial window is
   left out. *)
let window_cpu_ms ~cpu0 cpus =
  let cpu = Array.of_list cpus in
  List.init (Array.length cpu / window) (fun w ->
      let prev = if w = 0 then cpu0 else cpu.((w * window) - 1) in
      (cpu.(((w + 1) * window) - 1) -. prev) *. 1e3 /. float_of_int window)

(* Both connections pull from one seeded sequence until [seconds] have
   elapsed; each sends its next request only after its previous response
   arrived.  Returns the samples in completion order, the daemon's CPU
   time (process [pid]) at each completion and the wall time from the
   start to the last completion. *)
let closed_loop ~seconds ~seed ~pid clients =
  let next = sequence ~seed in
  let lock = Mutex.create () in
  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let samples = ref [] and cpus = ref [] in
  let t0 = Run.now () in
  let last_done = ref t0 in
  let rec loop client =
    if Run.now () < t0 +. seconds then begin
      let s = exchange client (locked next) in
      locked (fun () ->
          samples := s :: !samples;
          cpus := Run.proc_cpu_s pid :: !cpus;
          last_done := Run.now ());
      loop client
    end
  in
  List.map (Thread.create loop) clients |> List.iter Thread.join;
  (List.rev !samples, List.rev !cpus, !last_done -. t0)

let run (t : Run.t) =
  let calibrate_s, (child_instr_smem, child_gmem) =
    Run.calibrate_in_child t [ "baseline"; "volta-like" ]
  in
  let d = start_daemon t in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let clients =
    List.init connections (fun _ ->
        match Client.connect (P.Tcp ("127.0.0.1", d.port)) with
        | Ok c -> c
        | Error e -> failwith (Gpu_diag.Diag.to_string e))
  in
  let first = List.hd clients in
  (* Warm-up pass: every distinct request once, so the daemon loads both
     devices' tables and measures every lazy global-memory point. *)
  List.iter (fun req -> ignore (exchange first req)) distinct;
  let c_setup = daemon_counters first in
  let setup_wall_s = Run.now () -. t.started in
  let daemon_cpu0 = Run.proc_cpu_s d.pid in
  let setup_cpu_s = Run.cpu_now () +. Run.children_cpu () +. daemon_cpu0 in
  let samples, cpus, wall_s =
    closed_loop ~seconds:t.seconds ~seed:t.seed ~pid:d.pid clients
  in
  let daemon_cpu_s = Run.proc_cpu_s d.pid -. daemon_cpu0 in
  let c_after = daemon_counters first in
  let rss = Run.peak_rss_mb (string_of_int d.pid) in
  List.iter Client.close clients;
  stop_daemon d;
  (* Every response against the in-process recomputation of its
     request. *)
  let expected = Hashtbl.create 16 in
  let expect req =
    let k = key req in
    match Hashtbl.find_opt expected k with
    | Some e -> e
    | None ->
      let e =
        try
          let report = analyze req in
          Some (expected_payload req report, report)
        with e ->
          Run.note "in-process %s raised %s" k (Printexc.to_string e);
          None
      in
      Hashtbl.add expected k e;
      e
  in
  let ok s =
    match (s.resp, expect s.req) with
    | Ok r, Some (p, _) -> r.P.status = P.Completed && payload r = Some p
    | Ok _, None | Error _, _ -> false
  in
  let phase =
    {
      Run.latencies_ms = List.map (fun s -> s.client_ms) samples;
      failed = List.length (List.filter (fun s -> not (ok s)) samples);
      wall_s;
      cpu_s = daemon_cpu_s;
      window_cpu_ms = window_cpu_ms ~cpu0:daemon_cpu0 cpus;
    }
  in
  Run.say "serve-mix seed=%d: %d requests over %.2f s on %d connections"
    t.seed (Run.ops phase) wall_s connections;
  let e2e, wall =
    Run.end_to_end ~of_daemon:true ~setup_cpu_s ~setup_wall_s ~rss phase
  in
  (* Median client latency per request kind. *)
  let label s =
    P.workload_name s.req.P.params
    ^ if s.req.P.format = P.Html then " (html)" else ""
  in
  List.iter
    (fun l ->
      let ms =
        List.filter_map
          (fun s -> if label s = l then Some s.client_ms else None)
          samples
      in
      Run.say "    %-18s n=%4d  p50 %9.3f ms" l (List.length ms)
        (Stats.median ms))
    (List.sort_uniq compare (List.map label samples));
  let count cs name = Option.value ~default:0 (List.assoc_opt name cs) in
  let delta name = count c_after name - count c_setup name in
  let calib =
    {
      Run.instr_smem_runs =
        child_instr_smem + count c_setup "calib_measurements_instr_smem";
      gmem_points = child_gmem + count c_setup "calib_measurements_gmem";
      cache_loads = count c_setup "calib_cache_process_loads";
      timed_gmem_points = delta "calib_measurements_gmem";
      timed_instr_smem_runs = delta "calib_measurements_instr_smem";
    }
  in
  Run.note_timed_calibration calib;
  if not t.trace then (Run.ops phase, phase.failed, e2e)
  else begin
    (* The trace is each response's wire stage_us. *)
    let resps =
      List.filter_map
        (fun s -> match s.resp with Ok r -> Some (s, r) | Error _ -> None)
        samples
    in
    let n = float_of_int (List.length resps) in
    let mean f = List.fold_left (fun acc x -> acc +. f x) 0.0 resps /. n in
    let p50 f = Stats.median (List.map f resps) in
    let stage name (_, r) = stage_ms r name in
    let compute x =
      List.fold_left (fun acc s -> acc +. stage s x) 0.0 compute_stages
    in
    let transport ((s : sample), (r : P.response)) =
      s.client_ms -. r.P.elapsed_ms
    in
    let queue_wait = List.map (stage "queue-wait") resps in
    let per_second ms count = if ms > 0.0 then count /. (ms /. 1e3) else 0.0 in
    let warp_instrs =
      mean (fun (s, _) ->
          match expect s.req with
          | Some (_, report) ->
            float_of_int (Layered.warp_instrs report.Gpu_model.Workflow.stats)
          | None -> 0.0)
    in
    let events = float_of_int (delta "engine_events_replayed") /. n in
    let status name =
      List.length
        (List.filter (fun (_, r) -> P.status_name r.P.status = name) resps)
    in
    ( Run.ops phase,
      phase.failed,
      wall
      @ [
        ("bench.op_ms", mean (fun (s, _) -> s.client_ms));
        ("bench.other_ms_per_op", mean (stage "other"));
        ("bench.trace_overhead_pct", 0.0);
        ( "ops_failed_ratio",
          float_of_int phase.failed /. float_of_int (Run.ops phase) );
        ("kernel.compile_ms_per_op", mean (stage "compile"));
        ("hw.extract_us_per_op", 1e3 *. mean (stage "extract"));
        ("sim.self_ms_per_op", mean (stage "functional-sim"));
        ("sim.warp_instrs", warp_instrs);
        ( "sim.winstr_per_s",
          per_second (mean (stage "functional-sim")) warp_instrs );
        ("sim.minor_words_per_winstr", 0.0);
        ("microbench.lookup_ms_per_op", mean (stage "calibrate"));
        ("core.model_ms_per_op", mean (stage "model"));
        ("timing.self_ms_per_op", mean (stage "timing-replay"));
        ("timing.events", events);
        ( "timing.events_per_s",
          per_second (mean (stage "timing-replay")) events );
        ("timing.minor_words_per_event", 0.0);
        ("serve.queue_wait_ms_p50", Stats.median queue_wait);
        ( "serve.queue_wait_ms_p95",
          if Stats.supported ~n:(List.length queue_wait) 950 then
            Stats.percentile queue_wait 950
          else 0.0 );
        ("serve.compute_ms_p50", p50 compute);
        ("serve.render_ms_p50", p50 (stage "render"));
        ("serve.other_ms_p50", p50 (stage "other"));
        ("serve.transport_ms_p50", p50 transport);
      ]
      @ List.map
          (fun s -> ("serve.status." ^ s, float_of_int (status s)))
          Schema.serve_statuses
      @ Run.calib_values calib ~calibrate_s
      @ Run.not_exercised
          [ "mean_abs_err_pct"; "bracket_violations"; "gc." ] )
  end
