(* The wire-workload table: the one place that knows, per served
   workload, its names, its params codec (each default and range check
   written once), its working-set estimate and how to analyze it.
   Protocol parsing and encoding, the daemon's budget and dispatch, and
   the CLI subcommands all go through here, so they cannot drift. *)

module D = Gpu_diag.Diag
module Jsonx = Gpu_report.Jsonx
module W = Gpu_workloads

type params =
  | Matmul of { n : int; tile : int }
  | Tridiag of { nsys : int; n : int; padded : bool }
  | Spmv of { spmv_format : W.Spmv.format }
  | Reduce of { r_blocks : int; r_atomic : bool }
  | Histogram of { h_blocks : int; bins : int; skew : float }
  | Degree of { d_blocks : int; nodes : int; hub : float }

let workload_name = function
  | Matmul _ -> "matmul"
  | Tridiag _ -> "tridiag"
  | Spmv _ -> "spmv"
  | Reduce _ -> "reduce" (* the atomic flag rides in params, so the
                            name round-trips through the wire *)
  | Histogram _ -> "histogram"
  | Degree _ -> "degree"

(* The atomic reduce predicts far below the engine (BENCH_8); folding its
   runs into the tree variant's ledger would skew that ledger's
   regression check. *)
let ledger_name = function
  | Reduce { r_atomic = true; _ } -> "reduce-atomic"
  | p -> workload_name p

(* --- wire codec ----------------------------------------------------------- *)

type fields = (string * Jsonx.t) list

exception Bad of D.t

let bad fmt =
  Printf.ksprintf
    (fun m ->
      raise
        (Bad
           (D.make ~hint:"see the README protocol section for the schema"
              D.Error D.Serve m)))
    fmt

let get (article, kind) conv ~what ?default fields key =
  match List.assoc_opt key fields with
  | None -> (
    match default with
    | Some d -> d
    | None -> bad "%s: missing required %s field %S" what kind key)
  | Some v -> (
    match conv v with
    | Some x -> x
    | None -> bad "%s: field %S must be %s %s" what key article kind)

let get_bool =
  get ("a", "boolean") (function Jsonx.Bool b -> Some b | _ -> None)

let get_string =
  get ("a", "string") (function Jsonx.Str s -> Some s | _ -> None)

let what = "params"

let positive fields key ~default =
  let v = get ("an", "integer") Jsonx.to_int ~what ~default fields key in
  if v < 1 then bad "%s: field %S must be >= 1, got %d" what key v;
  v

let fraction fields key ~default =
  let v = get ("a", "number") Jsonx.to_float ~what ~default fields key in
  if not (v >= 0.0 && v <= 1.0) then
    bad "%s: field %S must be in [0, 1], got %g" what key v;
  v

let flag fields key = get_bool ~what ~default:false fields key

let check_keys ~what known fields =
  List.iter
    (fun (k, _) ->
      if not (List.mem k known) then bad "%s: unknown key %S" what k)
    fields

let spmv_formats =
  [
    ("ell", W.Spmv.Ell);
    ("bell", W.Spmv.Bell_im);
    ("bell+im", W.Spmv.Bell_im);
    ("bell+imiv", W.Spmv.Bell_imiv);
    ("imiv", W.Spmv.Bell_imiv);
  ]

(* The canonical wire spelling is the display name in lower case. *)
let spmv_format_name f = String.lowercase_ascii (W.Spmv.format_name f)

(* One decoder per workload, in CLI listing order: the defaults and range
   checks here are the only ones. *)
let decoders =
  [
    (fun f ->
      Matmul
        {
          n = positive f "n" ~default:1024;
          tile = positive f "tile" ~default:16;
        });
    (fun f ->
      Tridiag
        {
          nsys = positive f "nsys" ~default:512;
          n = positive f "n" ~default:512;
          padded = flag f "padded";
        });
    (fun f ->
      let name = get_string ~what ~default:"ell" f "format" in
      match List.assoc_opt name spmv_formats with
      | Some spmv_format -> Spmv { spmv_format }
      | None ->
        bad "params: unknown spmv format %S (ell, bell+im, bell+imiv)" name);
    (fun f ->
      Reduce
        {
          r_blocks = positive f "blocks" ~default:512;
          r_atomic = flag f "atomic";
        });
    (fun f ->
      Histogram
        {
          h_blocks = positive f "blocks" ~default:256;
          bins = positive f "bins" ~default:64;
          skew = fraction f "skew" ~default:0.8;
        });
    (fun f ->
      Degree
        {
          d_blocks = positive f "blocks" ~default:256;
          nodes = positive f "nodes" ~default:64;
          hub = fraction f "hub" ~default:0.3;
        });
  ]

let table =
  List.map (fun decode -> (workload_name (decode []), decode)) decoders

let workloads = List.map fst table
let ledger_names =
  workloads @ [ ledger_name (Reduce { r_blocks = 1; r_atomic = true }) ]

let jint i = Jsonx.Num (float_of_int i)

let params_to_json = function
  | Matmul { n; tile } -> Jsonx.Obj [ ("n", jint n); ("tile", jint tile) ]
  | Tridiag { nsys; n; padded } ->
    Jsonx.Obj
      [ ("nsys", jint nsys); ("n", jint n); ("padded", Jsonx.Bool padded) ]
  | Spmv { spmv_format } ->
    Jsonx.Obj [ ("format", Jsonx.Str (spmv_format_name spmv_format)) ]
  | Reduce { r_blocks; r_atomic } ->
    Jsonx.Obj [ ("blocks", jint r_blocks); ("atomic", Jsonx.Bool r_atomic) ]
  | Histogram { h_blocks; bins; skew } ->
    Jsonx.Obj
      [ ("blocks", jint h_blocks); ("bins", jint bins);
        ("skew", Jsonx.Num skew) ]
  | Degree { d_blocks; nodes; hub } ->
    Jsonx.Obj
      [ ("blocks", jint d_blocks); ("nodes", jint nodes);
        ("hub", Jsonx.Num hub) ]

(* Every key some workload's params encode to: exactly the keys the
   decoders read. *)
let known_param_keys =
  List.concat_map
    (fun (_, decode) ->
      match params_to_json (decode []) with
      | Jsonx.Obj f -> List.map fst f
      | _ -> [])
    table

let params_of_fields ~workload fields =
  check_keys ~what known_param_keys fields;
  match List.assoc_opt workload table with
  | Some decode -> decode fields
  | None ->
    bad "unknown workload %S (%s)" workload (String.concat ", " workloads)

(* CLI flags decode as the wire fields they name, so an absent flag takes
   the same default a request gets; a workload ignores the flags it has
   no use for, as the wire ignores their keys. *)
let of_flags ?tile ?n ?padded ?atomic ?spmv_format workload =
  let field key conv = Option.map (fun v -> (key, conv v)) in
  let bool b = Jsonx.Bool b and str f = Jsonx.Str (spmv_format_name f) in
  match
    params_of_fields ~workload
      (List.filter_map Fun.id
         [
           field "n" jint n; field "tile" jint tile; field "padded" bool padded;
           field "atomic" bool atomic; field "format" str spmv_format;
         ])
  with
  | p -> Ok p
  | exception Bad d -> Error { d with D.stage = D.Cli; hint = None }

(* --- budget and dispatch -------------------------------------------------- *)

(* Functional simulation keeps one float cell per array element plus
   register/trace state per simulated thread; 64 bytes/element of the
   dominant arrays bounds both comfortably. *)
let bytes_per_element = 64

let working_set_bytes = function
  | Matmul { n; tile = _ } ->
    (* A, B, C: three n x n matrices. *)
    3 * n * n * bytes_per_element
  | Tridiag { nsys; n; padded } ->
    (* Four coefficient arrays per system, padded to the next power of
       two when requested. *)
    let n = if padded then max n 1 else n in
    4 * nsys * n * bytes_per_element
  | Spmv _ ->
    (* The QCD-like matrix is a fixed size: ~1.9M nonzeros in 3x3
       blocks plus index and vector arrays. *)
    2 * 1024 * 1024 * bytes_per_element
  | Reduce { r_blocks; _ } ->
    (* input (2*threads elements per block, threads = 128) + partials *)
    r_blocks * 257 * bytes_per_element
  | Histogram { h_blocks; bins; _ } ->
    (* input (threads * items per block) + per-block partial histograms *)
    h_blocks * ((128 * 4) + bins) * bytes_per_element
  | Degree { d_blocks; nodes; _ } ->
    (* src + dst endpoint arrays + per-block partial degree vectors *)
    d_blocks * ((2 * 128 * 4) + nodes) * bytes_per_element

let analyze ?spec ?measure ?sample ?replay_sample ?timeline ?ctx = function
  | Matmul { n; tile } ->
    W.Matmul.analyze ?spec ?measure ?sample ?replay_sample ?timeline ?ctx ~n
      ~tile ()
  | Tridiag { nsys; n; padded } ->
    W.Tridiag.analyze ?spec ?measure ?sample ?replay_sample ?timeline ?ctx
      ~nsys ~n ~padded ()
  | Spmv { spmv_format } ->
    W.Spmv.analyze ?spec ?measure ?sample ?replay_sample ?timeline ?ctx
      (W.Spmv.qcd_like ()) spmv_format
  | Reduce { r_blocks; r_atomic } ->
    W.Reduce.analyze ?spec ?measure ?sample ?replay_sample ?timeline ?ctx
      ~blocks:r_blocks
      (if r_atomic then W.Reduce.Atomic else W.Reduce.Sequential)
  | Histogram { h_blocks; bins; skew } ->
    W.Histogram.analyze ?spec ?measure ?sample ?replay_sample ?timeline ?ctx
      ~blocks:h_blocks ~bins ~skew ()
  | Degree { d_blocks; nodes; hub } ->
    W.Degree.analyze ?spec ?measure ?sample ?replay_sample ?timeline ?ctx
      ~blocks:d_blocks ~nodes ~hub ()
