(* perfbench: runs one benchmark workload and prints its metrics.

     main.exe --workload NAME --seed S --seconds T --trace 0|1
              [--gpuperf PATH]

   Every line but the last is a human-readable summary; the last line is
   the JSON result.  Each run calibrates into a fresh, private cache
   directory under .bench_work, so calibration is paid in
   set-up exactly as a new user pays it, and analysis runs on two jobs.
   See perfbench/README.md. *)

let started = Unix.gettimeofday ()

let usage () =
  prerr_endline
    "usage: main.exe --workload validation|serve-mix --seed S \
     --seconds T --trace 0|1 [--gpuperf PATH]";
  exit 2

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun e -> remove_tree (Filename.concat path e))
      (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (match args with
  | [ "--calibrate"; devices ] ->
    Perfbench.Run.calibrate_devices (String.split_on_char ',' devices);
    exit 0
  | _ -> ());
  let rec parse acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      parse ((key, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get key = List.assoc_opt key opts in
  let int key =
    match Option.bind (get key) int_of_string_opt with
    | Some v -> v
    | None -> usage ()
  in
  let workload = Option.value (get "--workload") ~default:"" in
  let seed = int "--seed" and seconds = int "--seconds" in
  let trace =
    match get "--trace" with
    | Some "0" -> false
    | Some "1" -> true
    | _ -> usage ()
  in
  let run =
    match workload with
    | "validation" -> Perfbench.Validation.run
    | "serve-mix" -> Perfbench.Serve_mix.run
    | _ -> usage ()
  in
  if seconds < 1 then usage ();
  let work_dir =
    Filename.concat ".bench_work"
      (Printf.sprintf "%s-seed%d-%d" workload seed (Unix.getpid ()))
  in
  remove_tree work_dir;
  mkdir_p (Filename.concat work_dir "cache");
  Unix.putenv "GPUPERF_CACHE_DIR" (Filename.concat work_dir "cache");
  Unix.putenv "GPUPERF_JOBS" "2";
  let t =
    {
      Perfbench.Run.workload;
      seed;
      seconds = float_of_int seconds;
      trace;
      work_dir;
      gpuperf =
        Option.value (get "--gpuperf")
          ~default:"_build/default/bin/gpuperf.exe";
      started;
    }
  in
  let attempted, failed, values =
    Fun.protect ~finally:(fun () -> remove_tree work_dir) (fun () -> run t)
  in
  print_endline
    (Perfbench.Emit.result_line ~trace ~attempted ~failed values)
