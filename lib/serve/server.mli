(** The [losac serve] daemon: a long-running process accepting
    {!Protocol} jobs over a Unix-domain (and optionally TCP) socket and
    executing them with {!Api.execute} on the process-wide
    {!Par.Pool} / {!Cache.Memo} / {!Device.Lut} state, so a warm cache
    built by one client accelerates every later request — across all
    executors.

    {b Executor pool.}  [executors] domains (default [min 4 cores])
    run jobs concurrently.  Executors are OCaml {e domains}, not
    threads: execution switches (cache/telemetry) are
    context-local in domain-local storage ([Obs.Fluid], bound by
    [Exec.Ctx.scope]), so one domain per concurrently-running job is
    exactly what isolates two jobs with conflicting flags.  Per-job
    parallelism still fans out on the shared {!Par.Pool}, which
    re-installs the submitting executor's bindings around every chunk.

    {b Admission.}  Each connection gets a reader thread that decodes
    frames and either rejects the request ([invalid_request],
    [overloaded] once the {e total} queued depth passes [queue_limit],
    [shutting_down] during drain) or appends it to the connection's own
    queue.  Executors drain connections in round-robin rotation — one
    job from the head connection, rotate it to the tail — so a client
    pipelining a deep backlog cannot starve another client's single
    request (per-client fairness replaces global FIFO).  The depth is
    exported as the [serve.queue_depth] metric, rejections as
    [serve.overloaded], cancellations as [serve.cancelled].

    {b Cancellation.}  A [cancel {target}] request is handled by the
    reader thread immediately (never queued): it sets the target job's
    cooperative cancellation token — queued jobs answer [Cancelled] at
    pop, running jobs abort at their next deadline poll.  Targets are
    scoped to the same connection.

    Message order on a connection, per job: [ack] (with queue depth),
    [started], optional [telemetry], then the final [result].  With
    several executors, responses to {e different} jobs may interleave
    in any order; clients match on the request id. *)

type config = {
  socket_path : string option;  (** Unix-domain listening socket *)
  tcp : (string * int) option;  (** optional (host, port) TCP listener *)
  queue_limit : int;
      (** bound on total queued jobs across connections; beyond it jobs
          are [overloaded] *)
  max_frame : int;  (** per-frame payload cap, bytes *)
  default_timeout_s : float option;
      (** applied to requests that carry no [timeout_s] of their own *)
  executors : int;
      (** concurrent executor domains, clamped to [1..16];
          {!default_executors} picks [min 4 cores] *)
}

val default_executors : unit -> int
(** [min 4 (Domain.recommended_domain_count ())]. *)

val default_config : config
(** No listeners (set at least one), [queue_limit = 64],
    [max_frame = 4 MiB], no default timeout,
    [executors = default_executors ()]. *)

type t

val start : config -> t
(** Bind the listeners and spawn the acceptor threads and executor
    domains; returns immediately.  Raises [Invalid_argument] when
    [config] names no listener, [Unix.Unix_error] when binding fails. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, reject new submissions with
    [shutting_down], drain every already-admitted job to its final
    response, then close connections and remove the socket file. *)

val queue_depth : t -> int
val jobs_done : t -> int

val executors : t -> int
(** The executor-domain count actually running (config clamped). *)

type exec_stat = { ex_id : int; ex_jobs : int; ex_busy_s : float }

val executor_stats : t -> exec_stat list
(** Per-executor accounting: jobs completed and total time spent inside
    [Api.execute].  Pool-level per-executor rows (chunks an executor ran
    itself while draining its own batches) appear in [Par.Pool.worker_stats] under
    roles ["exec-0"].."exec-N". *)

val run : config -> int
(** [start], then block until SIGTERM/SIGINT, then [stop] (draining).
    Returns the number of jobs completed — the [losac serve] main
    loop. *)
