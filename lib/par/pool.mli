(** A pool of OCaml 5 domains for embarrassingly parallel sections.

    One process-wide FIFO of batches.  {!map} splits its input into
    contiguous chunks, queues them as one batch with an atomic "next
    chunk" counter and wakes up to [jobs - 1] workers; every participant
    claims chunks with one [fetch_and_add].  The submitting domain
    drains its own batch, then waits for the chunks other domains
    claimed, so nested calls and concurrent submitters cannot deadlock.
    A chunk that raises does not wedge the pool: the batch completes and
    the first exception is re-raised on the submitting domain.

    Chunk size is a pure function of [(n, jobs, cost)] and results are
    reassembled by chunk index, so every result is bit-identical to the
    sequential run whatever the schedule.  [jobs <= 1] and inputs of at
    most one item run inline, with no pool traffic and no accounts.

    Each batch captures the submitter's context-local bindings
    ({!Obs.Fluid.capture}) and installs them around every chunk on
    whichever domain runs it.  Every participating domain keeps an
    always-on account ({!worker_stats}).  With {!Obs.Config} enabled,
    each chunk is a [par.task] span; [par.tasks] counts chunks,
    [par.steals] those run for another domain's batch, [par.queue_depth]
    records the batches queued at each submission, and chunks feed the
    [par.queue_wait_us] (submission to start) and [par.task_run_us]
    histograms. *)

type cost =
  | Cheap  (** ≲ 0.1 ms per item (a Monte Carlo sample): many per chunk *)
  | Moderate  (** ~1–50 ms per item (a corner-sweep point): one per chunk *)
  | Expensive  (** ≳ 100 ms per item (a whole flow case): one per chunk *)

val default_jobs : unit -> int
(** Resolution order: {!set_default_jobs}, then the [LOSAC_JOBS]
    environment variable, then [Domain.recommended_domain_count ()]. *)

val set_default_jobs : int -> unit
(** Override the default parallelism (clamped to at least 1).  Wired to
    the [-j]/[--jobs] CLI options. *)

val map : ?jobs:int -> ?cost:cost -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map.  [jobs] defaults to
    {!default_jobs}[ ()]; [~jobs:1] runs inline without touching the
    pool.  [cost] (default [Moderate]) picks the chunk size. *)

val num_workers : unit -> int
(** Worker domains currently alive (0 before the first parallel call). *)

val queue_depth : unit -> int
(** Batches currently in the shared queue (diagnostic; racy). *)

val set_role : string -> unit
(** Label the calling domain's participant row in {!worker_stats}
    (registering it on first contact).  The job server tags its
    executor domains ["exec-0"].."exec-N" so [losac stats] renders
    per-executor rows; pool domains are always ["worker"], everything
    else defaults to ["caller"]. *)

type worker_stat = {
  ws_domain : int;  (** OCaml domain id *)
  ws_role : string;
  (** ["worker"] for pool domains, ["exec-<i>"] for job-server
      executors (see {!set_role}), ["caller"] otherwise *)
  ws_tasks : int;  (** chunks run on this domain *)
  ws_busy_us : float;  (** total chunk start->finish time on this domain *)
  ws_wait_us : float;
      (** total batch-submission->chunk-start wait of chunks it ran *)
  ws_alive_us : float;  (** time since the domain first touched the pool *)
  ws_busy_frac : float;  (** busy / alive, clamped to [0, 1] *)
  ws_steals : int;  (** chunks it ran for another domain's batch *)
  ws_warmup_us : float;  (** spawn-to-ready time; 0 for callers *)
}

val worker_stats : unit -> worker_stat list
(** Per-domain utilization accounts, sorted by domain id.  Always
    available (accounting is not gated on telemetry); reads are racy but
    each field is a consistent last-written value. *)

val export_metrics : unit -> unit
(** Publish {!worker_stats} as [par.<role>.<domain>.busy_frac],
    [.tasks] and [.steals] gauges (no-op while telemetry is disabled,
    like all metric writers). *)

val reset_stats : unit -> unit
(** Zero every domain's chunk/busy/wait/steal account (workers stay
    registered).  For tests and benchmark reruns. *)

val shutdown : unit -> unit
(** Stop and join all workers.  Called automatically [at_exit]; a later
    parallel call recreates the pool. *)

val set_stall_hook : (int -> unit) option -> unit
(** Test hook: called with the chunk index just before each chunk body
    runs on the pool path.  Tests install sleeps for chosen chunks to
    skew the schedule and check that results do not depend on it. *)
