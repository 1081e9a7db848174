(** Request budgets and the arithmetic the daemon's watchdog runs on
    them.  Pure: the clock is always passed in, so expiry logic is
    directly unit-testable.  All diagnostics use the [Budget] stage. *)

(** Server-wide limits, fixed at startup. *)
type limits = {
  queue_cap : int;
      (** max admitted-but-unfinished requests before backpressure *)
  default_deadline_ms : int option;
      (** applied when a request carries no [deadline_ms] *)
  max_request_bytes : int;  (** longest accepted request line *)
  max_working_set_bytes : int;
      (** reject requests whose estimated simulation footprint exceeds
          this (guards the daemon's memory budget) *)
  drain_timeout_s : float;  (** shutdown bound on in-flight work *)
}

(** queue_cap 64, no default deadline, 1 MiB lines, 2 GiB working set,
    30 s drain. *)
val default_limits : limits

(** {!Registry.working_set_bytes}. *)
val working_set_bytes : Protocol.params -> int

(** [deadline_at ~now ~limits req] is the absolute [Unix.gettimeofday]
    instant the request expires, [None] if unbounded.  A [deadline_ms]
    of [0] yields [Some now]: expired at admission. *)
val deadline_at : now:float -> limits:limits -> Protocol.request -> float option

val expired : now:float -> float option -> bool

(** Backpressure hint: how long a rejected client should wait before
    retrying, scaled by how far over capacity the queue is. *)
val retry_after_ms : limits:limits -> queue_depth:int -> int

(** Deadline-pressure policy for the timing replay of a measured
    request: the cluster fraction to sample given the remaining budget
    (milliseconds until the deadline, [None] = unbounded) at compute
    dispatch.  [None] means replay exactly; under 10 s of budget sample
    30% of clusters, under 2 s sample 10%.  Sampling only changes
    heterogeneous replays — the homogeneous fast path already simulates
    one representative cluster — and surfaces as degraded confidence
    with bracketing bounds instead of a watchdog timeout. *)
val replay_sample_fraction :
  measure:bool -> remaining_ms:float option -> float option

(** {2 Diagnostics} *)

val timeout_diag : deadline_ms:int -> elapsed_ms:float -> Gpu_diag.Diag.t
val overload_diag : limits:limits -> queue_depth:int -> Gpu_diag.Diag.t
val oversized_diag : limit:int -> got:int -> Gpu_diag.Diag.t
val working_set_diag : limit:int -> estimate:int -> Gpu_diag.Diag.t
val drain_timeout_diag : limits:limits -> in_flight:int -> Gpu_diag.Diag.t
