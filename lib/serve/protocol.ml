(* Wire protocol: line-delimited JSON.  Everything here is pure and
   total — the daemon's robustness starts with a parser that can only
   return [Ok] or a [Serve]-stage diagnostic, never raise. *)

module D = Gpu_diag.Diag
module Jsonx = Gpu_report.Jsonx
module Spmv = Gpu_workloads.Spmv

type endpoint = Tcp of string * int | Unix_socket of string

let endpoint_name = function
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port
  | Unix_socket path -> path

type format = Json | Md | Html

(* Each [*_name] / [*_of_name] pair reads one table: they cannot disagree. *)
let name_of table v = List.assoc v table

let of_name table name =
  List.find_map (fun (v, n) -> if n = name then Some v else None) table

let formats = [ (Json, "json"); (Md, "md"); (Html, "html") ]
let format_name = name_of formats
let format_of_name = of_name formats

type params = Registry.params =
  | Matmul of { n : int; tile : int }
  | Tridiag of { nsys : int; n : int; padded : bool }
  | Spmv of { spmv_format : Spmv.format }
  | Reduce of { r_blocks : int; r_atomic : bool }
  | Histogram of { h_blocks : int; bins : int; skew : float }
  | Degree of { d_blocks : int; nodes : int; hub : float }

let workload_name = Registry.workload_name

type request = {
  id : string;
  params : params;
  device : string;
  format : format;
  deadline_ms : int option;
  measure : bool;
  sample : int option;
}

(* The device fleet: the Section-6 what-if variants of the baseline plus
   the built-in later-generation profiles (DESIGN §16).  The CLI resolves
   its --variant names and `sweep-devices` rows against the same table,
   so wire and command line can never drift. *)
let devices =
  let spec = Gpu_hw.Spec.gtx285 in
  [
    ("baseline", spec);
    ("maxblocks16", Gpu_hw.Spec.with_max_blocks 16 spec);
    ("banks17", Gpu_hw.Spec.with_banks 17 spec);
    ("segment16", Gpu_hw.Spec.with_min_segment 16 spec);
    ("segment4", Gpu_hw.Spec.with_min_segment 4 spec);
    ("bigregfile", Gpu_hw.Spec.with_registers 32768 spec);
    ("bigsmem", Gpu_hw.Spec.with_smem 32768 spec);
    ("earlyrelease", Gpu_hw.Spec.with_early_release spec);
    ("volta-like", Gpu_hw.Spec.volta_like);
    ("ampere-like", Gpu_hw.Spec.ampere_like);
  ]

let device_of_name name = List.assoc_opt name devices

(* --- request parsing ----------------------------------------------------- *)

let known_keys =
  [
    "id"; "workload"; "params"; "device"; "format"; "deadline_ms";
    "measure"; "sample"; "op";
  ]

let parse_request line =
  match Jsonx.parse line with
  | Error m ->
    Error
      (D.make ~hint:"requests are one JSON object per line" D.Error D.Serve
         (Printf.sprintf "unparsable request: %s" m))
  | Ok json -> (
    try
      let fields =
        match json with
        | Jsonx.Obj fields -> fields
        | _ -> Registry.bad "request must be a JSON object"
      in
      let what = "request" in
      Registry.check_keys ~what known_keys fields;
      let workload = Registry.get_string ~what fields "workload" in
      let param_fields =
        match List.assoc_opt "params" fields with
        | None -> []
        | Some (Jsonx.Obj f) -> f
        | Some _ -> Registry.bad "request: field \"params\" must be an object"
      in
      let params = Registry.params_of_fields ~workload param_fields in
      let device =
        Registry.get_string ~what ~default:"baseline" fields "device"
      in
      if device_of_name device = None then
        Registry.bad "unknown device %S (%s)" device
          (String.concat ", " (List.map fst devices));
      let format_field =
        Registry.get_string ~what ~default:"json" fields "format"
      in
      let format =
        match format_of_name format_field with
        | Some f -> f
        | None ->
          Registry.bad "unknown format %S (json, md, html)" format_field
      in
      let optional_int key ~min =
        match List.assoc_opt key fields with
        | None -> None
        | Some v -> (
          match Jsonx.to_int v with
          | Some i when i >= min -> Some i
          | Some i -> Registry.bad "request: %s must be >= %d, got %d" key min i
          | None -> Registry.bad "request: %s must be an integer" key)
      in
      let deadline_ms = optional_int "deadline_ms" ~min:0 in
      let sample = optional_int "sample" ~min:1 in
      Ok
        {
          id = Registry.get_string ~what ~default:"" fields "id";
          params;
          device;
          format;
          deadline_ms;
          measure = Registry.get_bool ~what ~default:false fields "measure";
          sample;
        }
    with Registry.Bad d -> Error d)

(* --- request encoding ----------------------------------------------------- *)

let jint i = Jsonx.Num (float_of_int i)

(* An optional wire field: present only when set. *)
let opt key enc = function Some v -> [ (key, enc v) ] | None -> []

let request_to_json r =
  Jsonx.Obj
    (List.concat
       [
         [
           ("id", Jsonx.Str r.id);
           ("workload", Jsonx.Str (workload_name r.params));
           ("params", Registry.params_to_json r.params);
           ("device", Jsonx.Str r.device);
           ("format", Jsonx.Str (format_name r.format));
         ];
         opt "deadline_ms" jint r.deadline_ms;
         [ ("measure", Jsonx.Bool r.measure) ];
         opt "sample" jint r.sample;
       ])

let encode_request r = Jsonx.encode (request_to_json r)

(* --- responses ------------------------------------------------------------ *)

type status =
  | Completed
  | Failed
  | Timed_out
  | Overloaded
  | Shutting_down
  | Malformed

let statuses =
  [
    (Completed, "ok"); (Failed, "error"); (Timed_out, "timeout");
    (Overloaded, "overloaded"); (Shutting_down, "shutting_down");
    (Malformed, "malformed");
  ]

let status_name = name_of statuses
let status_of_name = of_name statuses

type response = {
  r_id : string;
  status : status;
  elapsed_ms : float;
  confidence : string option;
  body : Jsonx.t option;
  rendered : string option;
  diags : D.t list;
  retry_after_ms : int option;
  queue_depth : int option;
  trace_id : string option;
  stage_breakdown : (string * float) list; (* stage -> wall µs, tiles elapsed *)
}

let response ?confidence ?body ?rendered ?(diags = []) ?retry_after_ms
    ?queue_depth ?trace_id ?(stage_breakdown = []) ~id ~elapsed_ms status =
  {
    r_id = id;
    status;
    elapsed_ms;
    confidence;
    body;
    rendered;
    diags;
    retry_after_ms;
    queue_depth;
    trace_id;
    stage_breakdown;
  }

let response_to_json r =
  Jsonx.Obj
    (List.concat
       [
         [
           ("id", Jsonx.Str r.r_id);
           ("status", Jsonx.Str (status_name r.status));
           ("elapsed_ms", Jsonx.Num r.elapsed_ms);
         ];
         opt "trace_id" (fun t -> Jsonx.Str t) r.trace_id;
         (match r.stage_breakdown with
         | [] -> []
         | stages ->
           [
             ( "stage_us",
               Jsonx.Obj
                 (List.map (fun (n, us) -> (n, Jsonx.Num us)) stages) );
           ]);
         opt "confidence" (fun c -> Jsonx.Str c) r.confidence;
         opt "result" Fun.id r.body;
         opt "report" (fun s -> Jsonx.Str s) r.rendered;
         (match r.diags with
         | [] -> []
         | diags ->
           [
             ( "diagnostics",
               Jsonx.List (List.map Gpu_report.Render.diag_json diags) );
           ]);
         opt "retry_after_ms" jint r.retry_after_ms;
         opt "queue_depth" jint r.queue_depth;
       ])

let encode_response r = Jsonx.encode (response_to_json r)

let stage_of_name name =
  let all =
    [
      D.Disasm; D.Asm; D.Compile; D.Launch; D.Exec; D.Occupancy; D.Model;
      D.Timing; D.Cache; D.Cli; D.Serve; D.Budget;
    ]
  in
  List.find_opt (fun s -> D.stage_name s = name) all

let member_str key json =
  match Jsonx.member key json with Some (Jsonx.Str s) -> Some s | _ -> None

let parse_diag json =
  let str key = member_str key json in
  match (str "severity", str "stage", str "message") with
  | Some sev, Some stage, Some message ->
    let severity =
      match sev with
      | "error" -> D.Error
      | "warning" -> D.Warning
      | _ -> D.Info
    in
    let stage = Option.value ~default:D.Serve (stage_of_name stage) in
    Some (D.make ?hint:(str "hint") severity stage message)
  | _ -> None

let parse_response line =
  match Jsonx.parse line with
  | Error m ->
    Error
      (D.error D.Serve "unparsable response: %s" m)
  | Ok json -> (
    let str key = member_str key json in
    let int key = Option.bind (Jsonx.member key json) Jsonx.to_int in
    match Option.bind (str "status") status_of_name with
    | None -> Error (D.error D.Serve "response has no valid status field")
    | Some status ->
      Ok
        {
          r_id = Option.value ~default:"" (str "id");
          status;
          elapsed_ms =
            Option.value ~default:0.0
              (Option.bind (Jsonx.member "elapsed_ms" json) Jsonx.to_float);
          confidence = str "confidence";
          body = Jsonx.member "result" json;
          rendered = str "report";
          diags =
            (match Jsonx.member "diagnostics" json with
            | Some (Jsonx.List l) -> List.filter_map parse_diag l
            | _ -> []);
          retry_after_ms = int "retry_after_ms";
          queue_depth = int "queue_depth";
          trace_id = str "trace_id";
          stage_breakdown =
            (match Jsonx.member "stage_us" json with
            | Some (Jsonx.Obj fields) ->
              List.filter_map
                (fun (n, v) ->
                  Option.map (fun us -> (n, us)) (Jsonx.to_float v))
                fields
            | _ -> []);
        })
