(* What every workload shares: the run's parameters, its private working
   directory, cold calibration in a child process, closed-loop timing of
   operations (plain and traced), and the human-readable summary printed
   above the result line. *)

type t = {
  workload : string;
  seed : int;
  seconds : float;  (** minimum timed wall time *)
  trace : bool;
  work_dir : string;  (** private to this run; holds the calibration cache *)
  gpuperf : string;  (** path of the gpuperf executable (serve-mix) *)
  started : float;  (** process start, for [setup_s] *)
}

let now = Unix.gettimeofday

(* Human-readable lines go to stdout above the final result line;
   progress notes go to stderr. *)
let say fmt = Printf.ksprintf print_endline fmt
let note fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* Reads to end of file, so /proc files (which report length 0) work. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (String.starts_with ~prefix:"VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

let spans_path t =
  Filename.concat (Filename.dirname t.work_dir)
    (Printf.sprintf "spans-%s-seed%d.jsonl" t.workload t.seed)

(* Seeded Fisher-Yates shuffle. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* --- calibration -------------------------------------------------------- *)

(* Cold calibration of [devices] (names from Gpu_serve.Protocol.devices)
   in a child process, [main.exe --calibrate NAME,...].  It fills the
   run's fresh cache directory, so set-up pays calibration as a first run
   does, while the measured process's peak RSS covers its own work only
   (the calibration heap's peak varies by about 15 % with how the two
   calibration domains interleave).  Returns the wall seconds and the
   child's instruction/shared-memory and global-memory measurement
   counts. *)
let calibrate_in_child t devices =
  let out_path = Filename.concat t.work_dir "calibrate.out" in
  let out =
    Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let a = now () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--calibrate"; String.concat "," devices |]
      Unix.stdin out Unix.stderr
  in
  Unix.close out;
  let _, status = Unix.waitpid [] pid in
  let seconds = now () -. a in
  if status <> Unix.WEXITED 0 then failwith "calibration process failed";
  Scanf.sscanf (read_file out_path) " %d %d" (fun instr_smem gmem ->
      (seconds, (instr_smem, gmem)))

(* The child's side: calibrate each device, print the counters. *)
let calibrate_devices names =
  List.iter
    (fun name ->
      match Gpu_serve.Protocol.device_of_name name with
      | Some spec -> ignore (Gpu_microbench.Tables.for_spec spec)
      | None -> failwith ("unknown device " ^ name))
    names;
  let c = Gpu_microbench.Tables.counters () in
  Printf.printf "%d %d\n" c.instr_smem_measurements c.gmem_measurements

(* Calibration counts, split into set-up and timed phase. *)
type calib = {
  instr_smem_runs : int;
  gmem_points : int;
  cache_loads : int;
  timed_gmem_points : int;
  timed_instr_smem_runs : int;
}

(* Counts of an in-process workload: the calibration child's plus this
   process's deltas over set-up and over the timed phase. *)
let in_process_calib ~child:(child_instr_smem, child_gmem)
    ~(before : Gpu_microbench.Tables.counters)
    ~(setup : Gpu_microbench.Tables.counters)
    ~(after : Gpu_microbench.Tables.counters) =
  {
    instr_smem_runs =
      child_instr_smem + setup.instr_smem_measurements
      - before.instr_smem_measurements;
    gmem_points =
      child_gmem + setup.gmem_measurements - before.gmem_measurements;
    cache_loads = setup.cache_loads - before.cache_loads;
    timed_gmem_points = after.gmem_measurements - setup.gmem_measurements;
    timed_instr_smem_runs =
      after.instr_smem_measurements - setup.instr_smem_measurements;
  }

(* Calibration inside the timed phase means the warm-up missed a lazy
   point, and the timings include measurement work. *)
let note_timed_calibration (c : calib) =
  if c.timed_gmem_points <> 0 || c.timed_instr_smem_runs <> 0 then
    note "calibration ran during the timed phase (%d gmem points, %d \
          instruction/shared runs)"
      c.timed_gmem_points c.timed_instr_smem_runs

let calib_values (c : calib) ~calibrate_s =
  [
    ("microbench.calibrate_s", calibrate_s);
    ("microbench.instr_smem_runs", float_of_int c.instr_smem_runs);
    ("microbench.gmem_points", float_of_int c.gmem_points);
    ("microbench.cache_loads", float_of_int c.cache_loads);
    ("microbench.timed_gmem_points", float_of_int c.timed_gmem_points);
  ]

(* Per-layer metrics of layers a workload does not exercise in the
   measured process, or cannot tell apart from outside lib/, read 0. *)
let not_exercised prefixes =
  List.filter_map
    (fun (m : Schema.metric) ->
      if List.exists (fun p -> String.starts_with ~prefix:p m.name) prefixes
      then Some (m.name, 0.0)
      else None)
    Schema.per_layer

(* --- timed phases --------------------------------------------------------- *)

type phase = {
  latencies_ms : float list;  (** one per operation, in order *)
  failed : int;
  wall_s : float;  (** first operation start to last operation end *)
  cpu_s : float;  (** this process's CPU time over the same interval *)
  window_cpu_ms : float list;
      (** CPU milliseconds per operation in each window of consecutive
          operations that covers every kind of operation equally *)
}

(* CPU seconds of this process, all domains (getrusage).  CPU time
   leaves out the time the hypervisor steals from the guest, which on a
   shared host moves wall-clock figures by up to twofold between runs. *)
let cpu_now = Sys.time

(* CPU seconds of the children this process has waited for. *)
let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* CPU seconds of a running process, from /proc/PID/stat (utime and
   stime, fields 14 and 15, in clock ticks of 1/100 s). *)
let proc_cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let comm_end = String.rindex stat ')' in
  (* fields from 3 on follow the parenthesised command name *)
  let fields =
    String.split_on_char ' '
      (String.sub stat (comm_end + 2) (String.length stat - comm_end - 2))
  in
  match List.filteri (fun i _ -> i = 11 || i = 12) fields with
  | [ utime; stime ] ->
    float_of_int (int_of_string utime + int_of_string stime) /. 100.0
  | _ -> failwith "unreadable /proc stat"

let ops p = List.length p.latencies_ms
let throughput p = float_of_int (ops p) /. p.wall_s

(* Closed loop over whole passes until [seconds] have elapsed, and at
   least two, so that one slow or fast stretch of the host does not set
   the median of the pass windows alone.  [pass i] lists the operations
   of pass [i]; applying one prepares its inputs (untimed) and returns
   the timed call, which answers whether every check on its output held.
   An exception fails the operation. *)
let timed_passes ~seconds (pass : int -> (unit -> unit -> bool) list) =
  let latencies = ref [] and failed = ref 0 and windows = ref [] in
  let t0 = now () and c0 = cpu_now () in
  let rec go i =
    let pass_ops = pass i and pass_c0 = cpu_now () in
    List.iter
      (fun prepare ->
        let call = prepare () in
        let a = now () in
        let ok =
          try call ()
          with e ->
            note "operation raised %s" (Printexc.to_string e);
            false
        in
        latencies := ((now () -. a) *. 1e3) :: !latencies;
        if not ok then incr failed)
      pass_ops;
    windows :=
      ((cpu_now () -. pass_c0) *. 1e3 /. float_of_int (List.length pass_ops))
      :: !windows;
    if i = 0 || now () -. t0 < seconds then go (i + 1)
  in
  go 0;
  {
    latencies_ms = List.rev !latencies;
    failed = !failed;
    wall_s = now () -. t0;
    cpu_s = cpu_now () -. c0;
    window_cpu_ms = List.rev !windows;
  }

type traced = {
  phase : phase;
  spans : Spans.span list;
  minor_words : float;  (** [Gc.quick_stat] deltas summed over operations *)
  major_collections : int;
}

(* [timed_passes] with tracing: each operation runs inside a [bench.op]
   span and receives the recorder and its operation id for the layer
   spans it opens. *)
let traced_passes ~seconds
    (pass : int -> (unit -> Spans.t -> op:int -> bool) list) =
  let rec_ = Spans.create () in
  let next_op = ref 0 and minor = ref 0.0 and major = ref 0 in
  let gc_sum s0 () =
    let s1 = Gc.quick_stat () in
    minor := !minor +. s1.minor_words -. s0.Gc.minor_words;
    major := !major + s1.major_collections - s0.Gc.major_collections
  in
  let phase =
    timed_passes ~seconds (fun i ->
        List.map
          (fun prepare () ->
            let call = prepare () in
            let op = !next_op in
            incr next_op;
            fun () ->
              Fun.protect ~finally:(gc_sum (Gc.quick_stat ())) (fun () ->
                  Spans.with_ rec_ ~op "bench.op" (fun () -> call rec_ ~op)))
          (pass i))
  in
  { phase; spans = Spans.spans rec_; minor_words = !minor;
    major_collections = !major }

(* Milliseconds of self time per operation in spans named [name]. *)
let self_ms_per_op (tr : traced) name =
  let total =
    Option.value ~default:0.0
      (List.assoc_opt name (Spans.self_by_name tr.spans))
  in
  1e3 *. total /. float_of_int (ops tr.phase)

(* Writes the spans out and returns the attempted and failed counts of
   both phases with the per-layer metrics every traced in-process run
   reports.  The untraced phase ran first, in the same process. *)
let traced_common t ~(untraced : phase) (tr : traced) =
  write_file (spans_path t) (Spans.to_jsonl tr.spans);
  let n = float_of_int (ops tr.phase) in
  (* in CPU time per operation: wall-clock throughput of two phases a few
     seconds apart differs by more than the tracing costs on this host *)
  let cpu_per_op p = p.cpu_s /. float_of_int (ops p) in
  let overhead = 100.0 *. ((cpu_per_op tr.phase /. cpu_per_op untraced) -. 1.0) in
  let attempted = ops untraced + ops tr.phase
  and failed = untraced.failed + tr.phase.failed in
  say "traced: %d ops over %.2f s; tracing overhead %+.2f%% CPU time per \
       operation; spans in %s"
    (ops tr.phase) tr.phase.wall_s overhead (spans_path t);
  ( attempted,
    failed,
    [
      ("bench.op_ms", 1e3 *. Spans.total_duration tr.spans "bench.op" /. n);
      ("bench.other_ms_per_op", self_ms_per_op tr "bench.op");
      ("bench.trace_overhead_pct", overhead);
      ("ops_failed_ratio", float_of_int failed /. float_of_int attempted);
      ("gc.minor_mwords_per_op", tr.minor_words /. n /. 1e6);
      ("gc.major_collections_per_op", float_of_int tr.major_collections /. n);
    ] )

(* --- the summary ------------------------------------------------------------ *)

(* The summary lines, by name with unit and sample count, then the
   end-to-end values and the wall-clock values the traced run reports as
   per-layer metrics.  [cpu_ms_per_op] is the median over the phase's
   windows, so a burst of contention on the host moves a few windows
   rather than the figure.  The median latency goes with the highest
   percentile that has at least ten samples beyond it; p95 is printed
   only when the run supports it. *)
let end_to_end ?(of_daemon = false) ~setup_cpu_s ~setup_wall_s ~rss (p : phase) =
  let n = ops p in
  let p50 = Stats.median p.latencies_ms in
  let cpu_ms = Stats.median p.window_cpu_ms in
  let rss_of = if of_daemon then ", daemon" else "" in
  say "  cpu_ms_per_op        %12.4f ms     (median of %d windows, n=%d%s; \
       whole phase %.4f)"
    cpu_ms (List.length p.window_cpu_ms) n rss_of
    (1e3 *. p.cpu_s /. float_of_int n);
  say "  setup_s              %12.4f s      (n=1, CPU)" setup_cpu_s;
  say "  throughput_ops_s     %12.4f 1/s    (n=%d)" (throughput p) n;
  say "  latency_p50_ms       %12.4f ms     (n=%d)" p50 n;
  if Stats.supported ~n 950 then
    say "  latency_p95_ms       %12.4f ms     (n=%d)"
      (Stats.percentile p.latencies_ms 950) n
  else
    say "  latency_p95_ms       omitted         (n=%d; p95 needs %d samples \
         beyond it)"
      n Stats.min_beyond;
  (match Stats.tail_per_mille ~n with
  | Some q when q > 500 && q <> 950 ->
    say "  latency_%s_ms     %12.4f ms     (highest supported tail, n=%d)"
      (Stats.per_mille_name q) (Stats.percentile p.latencies_ms q) n
  | Some _ | None -> ());
  say "  setup_wall_s         %12.4f s      (n=1)" setup_wall_s;
  say "  peak_rss_mb          %12.4f MB     (n=1%s)" rss rss_of;
  say "  ops_failed_ratio     %12.4f        (%d of %d)"
    (float_of_int p.failed /. float_of_int n) p.failed n;
  ( [ ("cpu_ms_per_op", cpu_ms); ("setup_s", setup_cpu_s) ],
    [
      ("throughput_ops_s", throughput p);
      ("latency_p50_ms", p50);
      ("setup_wall_s", setup_wall_s);
      ("peak_rss_mb", rss);
    ] )
