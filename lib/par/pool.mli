(** A work-stealing pool of OCaml 5 domains for embarrassingly parallel
    sections.

    {b Scheduler.}  Each domain that touches the pool — worker or caller
    — owns a Chase–Lev-style deque ({!Deque}).  A parallel call splits
    its chunk space into one contiguous {e slice per participant},
    pushes those slices into the submitting domain's own deque (batch
    submission: one enqueue per participant, not per chunk) and wakes
    the workers it wants; everybody then pops locally and steals from
    randomly ordered victims when local work runs out.  Popping a slice
    splits it: the remainder goes back to the popper's deque (stealable)
    and only the first chunk runs — so load balances at chunk
    granularity without a global queue, mutex or condition churn.

    {b Fast path.}  [jobs <= 1], singleton inputs, and workloads whose
    estimated total cost (from the [?cost] hint) falls below the
    sequential cutoff run inline with zero pool traffic — no
    allocation, no atomics, no accounts.

    {b Adaptive chunking.}  Chunk {e size} is chosen from the caller's
    [?cost] hint refined by always-on per-cost-class histograms of
    observed per-item run time ([par.task_run_us] feeds the same data
    to telemetry); chunk {e boundaries} remain a pure function of
    [(n, jobs, chunk_size)], and results are reassembled by chunk
    index, so every result is bit-identical to the sequential run
    regardless of scheduling, stealing or history.  [map_reduce]
    ignores the adaptive size and always uses exactly [jobs] chunks, so
    its (chunk-ordered) reduction sequence depends only on [(n, jobs)].

    {b Workers.}  Spawned once, kept warm across calls: an idle worker
    spins through a few steal rounds (counted as [steal_spins]) and
    then blocks on its own condition variable until the next batch
    pokes it — no broadcast herd.  Spawn-to-ready warm-up time is
    recorded per worker ({!worker_stat.ws_warmup_us}).

    {b Exceptions.}  If a chunk raises, the batch still runs to
    completion (the pool is never wedged) and the first recorded
    exception is re-raised on the calling domain.

    {b Telemetry.}  When {!Obs.Config} is enabled, every chunk runs in
    a [par.task] span; [par.tasks] counts chunks, [par.queue_depth]
    records the deque depth seen at each submission, tasks feed the
    [par.queue_wait_us] (deque-push to start — stamped at the actual
    push, so batch submission does not over-report) and
    [par.task_run_us] histograms, chunks [par.chunk_items], batches
    [par.batch_tasks], and the stealing counters [par.steal_attempts] /
    [par.steals] / [par.steal_spins] accumulate.

    {b Utilization.}  Independently of telemetry, every participating
    domain keeps an always-on account — tasks, busy and queue-wait
    time, steal attempts/successes/spins, warm-up — merged on demand by
    {!worker_stats}.

    {b Context propagation.}  Each batch captures the submitter's
    context-local bindings ({!Obs.Fluid.capture}: cache and
    telemetry switches) and re-installs them around every chunk on
    whichever domain runs it, so a scope's configuration follows its
    work through stealing and caller-helps.  Two concurrent batches
    with conflicting bindings therefore stay isolated even when their
    chunks interleave on the same worker. *)

type cost =
  | Cheap  (** ≲ 0.1 ms per item (e.g. a Monte Carlo sample's share) *)
  | Moderate  (** ~1–50 ms per item (e.g. a corner-sweep point) *)
  | Expensive
      (** ≳ 100 ms per item (e.g. a whole flow case): chunk size 1 *)
  | Item_us of float  (** caller-known per-item estimate, microseconds *)

val default_jobs : unit -> int
(** Resolution order: {!set_default_jobs}, then the [LOSAC_JOBS]
    environment variable, then [Domain.recommended_domain_count ()]. *)

val set_default_jobs : int -> unit
(** Override the default parallelism (clamped to at least 1).  Wired to
    the [-j]/[--jobs] CLI options. *)

val map : ?jobs:int -> ?chunk:int -> ?cost:cost -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map.  [jobs] defaults to
    {!default_jobs}[ ()]; [~jobs:1] runs inline without touching the
    pool.  [?chunk] pins the chunk size (overriding the adaptive
    choice); [?cost] hints the per-item cost class for chunk sizing and
    the sequential cutoff. *)

val map_array :
  ?jobs:int -> ?chunk:int -> ?cost:cost -> ('a -> 'b) -> 'a array -> 'b array

val map_reduce :
  ?jobs:int ->
  ?cost:cost ->
  map:('a -> 'b) -> reduce:('b -> 'b -> 'b) -> 'b -> 'a list -> 'b
(** [map_reduce ~map ~reduce init xs] folds [reduce] over the mapped
    elements.  Always exactly [min jobs n] chunks, combined in chunk
    order: the result is deterministic for a given [jobs] whatever the
    schedule or chunk-size history, and equals the sequential fold
    whenever [reduce] is associative. *)

val parallel_for :
  ?jobs:int -> ?chunk:int -> ?cost:cost -> int -> (int -> unit) -> unit
(** [parallel_for n body] runs [body i] for every [i] in [0 .. n-1],
    partitioned into contiguous chunks (size from [?chunk], else
    adaptive).  Each index is executed exactly once; indices within a
    chunk run in increasing order. *)

val num_workers : unit -> int
(** Worker domains currently alive (0 before the first parallel call). *)

val queue_depth : unit -> int
(** Slices currently queued across all deques (diagnostic; racy). *)

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
  ws_tasks : int;
  ws_busy_us : float;  (** total chunk start->finish time on this domain *)
  ws_wait_us : float;  (** total deque-push->start wait of chunks it ran *)
  ws_alive_us : float;  (** time since the domain first touched the pool *)
  ws_busy_frac : float;  (** busy / alive, clamped to [0, 1] *)
  ws_steals : int;  (** slices successfully stolen by this domain *)
  ws_steal_attempts : int;  (** victim probes, successful or not *)
  ws_steal_spins : int;  (** full victim scans that found nothing *)
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
(** Zero every domain's task/busy/wait/steal account and the adaptive
    cost histograms (workers stay registered).  For tests and benchmark
    reruns. *)

val shutdown : unit -> unit
(** Stop and join all workers.  Called automatically [at_exit]; a later
    parallel call recreates the pool. *)

(** {2 Measurement and test hooks} *)

val with_pool_forced : (unit -> 'a) -> 'a
(** Run [f] with the inline fast path disabled: every combinator takes
    the full batch/deque path even at [jobs = 1] (a single-participant
    batch drained by the caller).  This is how [bench --scaling]
    measures the honest jobs=1 pool overhead against the sequential
    path.  Process-global flag; intended for benches and tests. *)

val set_stealing : bool -> unit
(** Disable/enable work stealing (default enabled).  With stealing off,
    workers are never fed — the submitting domain drains every slice
    itself — so results must stay bit-identical; tests use this to
    check schedule independence both ways. *)

val set_seq_cutoff_us : float -> unit
(** Estimated-total-cost threshold below which a hinted call runs
    inline (default 200 µs). *)

val set_stall_hook : (int -> unit) option -> unit
(** Test hook: called with the chunk index just before each chunk body
    runs on the pool path.  Tests install sleeps for chosen chunks to
    force steals and validate schedule independence under skew. *)
