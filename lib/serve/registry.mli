(** The wire-workload table: per served workload, its wire and ledger
    names, its params codec with each default and range check, its
    working-set estimate and its analyze dispatch.  {!Protocol},
    {!Budget}, {!Server} and the [gpuperf] subcommands all go through
    it. *)

(** Workload selection plus parameters.  Decoding checks signs and
    ranges only; shape constraints (e.g. matmul's tile divisibility) are
    enforced by kernel construction. *)
type params =
  | Matmul of { n : int; tile : int }
  | Tridiag of { nsys : int; n : int; padded : bool }
  | Spmv of { spmv_format : Gpu_workloads.Spmv.format }
  | Reduce of { r_blocks : int; r_atomic : bool }
  | Histogram of { h_blocks : int; bins : int; skew : float }
  | Degree of { d_blocks : int; nodes : int; hub : float }

(** Wire names, in CLI listing order. *)
val workloads : string list

(** The wire [workload] field (the atomic reduce is still ["reduce"]). *)
val workload_name : params -> string

(** The name reports and accuracy ledgers use: the wire name, except
    ["reduce-atomic"] for the atomic reduce. *)
val ledger_name : params -> string

(** Every name {!ledger_name} can return. *)
val ledger_names : string list

(** {2 Wire codec} *)

(** The members of a JSON object. *)
type fields = (string * Gpu_report.Jsonx.t) list

(** A [Serve]-stage diagnostic raised by the decoders below. *)
exception Bad of Gpu_diag.Diag.t

(** Raise {!Bad} with a formatted message and the schema hint. *)
val bad : ('a, unit, string, 'b) format4 -> 'a

(** Raise {!Bad} on a key of [fields] outside [known]. *)
val check_keys : what:string -> string list -> fields -> unit

(** Typed field lookups; [what] prefixes the diagnostic.  Raise {!Bad}
    on a wrong type, or a missing field without [default]. *)
val get_bool : what:string -> ?default:bool -> fields -> string -> bool
val get_string : what:string -> ?default:string -> fields -> string -> string

(** Decode a [params] object for the named workload; unknown keys,
    unknown workloads and out-of-range values raise {!Bad}. *)
val params_of_fields : workload:string -> fields -> params

val params_to_json : params -> Gpu_report.Jsonx.t

(** {2 CLI flags} *)

(** Accepted spmv format spellings. *)
val spmv_formats : (string * Gpu_workloads.Spmv.format) list

(** [of_flags workload] decodes the CLI's workload flags through the
    wire decoder, so an absent flag takes the wire default.  Errors are
    [Cli]-stage. *)
val of_flags :
  ?tile:int -> ?n:int -> ?padded:bool -> ?atomic:bool ->
  ?spmv_format:Gpu_workloads.Spmv.format -> string ->
  (params, Gpu_diag.Diag.t) result

(** {2 Budget and dispatch} *)

(** Estimated resident bytes of functionally simulating the request:
    input/output arrays plus per-thread simulator state.  Deliberately
    rough (correct order of magnitude) — it gates admission, it does not
    account. *)
val working_set_bytes : params -> int

val analyze :
  ?spec:Gpu_hw.Spec.t ->
  ?measure:bool ->
  ?sample:int ->
  ?replay_sample:Gpu_timing.Engine.sample ->
  ?timeline:Gpu_obs.Timeline.t ->
  ?ctx:Gpu_obs.Trace_ctx.t ->
  params ->
  Gpu_model.Workflow.report
