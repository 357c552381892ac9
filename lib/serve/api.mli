(** The shared job dispatcher: one {!Protocol.request} in, one
    {!Protocol.response} out.  Both the one-shot CLI ([losac <cmd>
    --format json]) and every {!Server} executor domain call this exact
    function, which is what makes a served job and a CLI run provably
    the same code path.  All execution switches the request carries
    (cache/telemetry) are applied as context-local bindings by
    [Exec.Ctx.scope] inside the workload runners, so concurrent
    [execute] calls on different domains never observe each other's
    configuration.

    [execute] never raises: simulator failures surface as
    [Failed (Sim_error.t)] (including cooperative {!Protocol.request}
    [timeout_s] deadlines, as [Timeout]), unknown technologies and
    topologies as [Bad_request], and anything unexpected as [Internal].
    The response [payload] is deterministic — volatile data (elapsed
    time) goes into [meta] only — so {!Protocol.canonical} forms are
    byte-comparable across runs and processes.

    [?cancel] shares a cooperative cancellation token with the job's
    [Exec.Ctx]: the server sets it on a [cancel] wire request, and the
    job aborts at its next [check_deadline] poll (surfacing as
    [Failed Timeout], which the server maps to [Cancelled]).  A
    [Cancel] workload itself answers [Bad_request] here — only the
    server's reader thread can act on it.

    [Done] payloads of synth, size, mc, corners, verify and optimize
    jobs are memoized ([serve.result], LRU of 256) keyed by workload,
    technology, kind, spec and resolved seed, so a warm repeat is one
    lookup with the cold bytes.  A hit polls the deadline once; a
    cache-off request ({!Cache.Config}) bypasses the memo. *)

val execute : ?cancel:bool Atomic.t -> Protocol.request -> Protocol.response

(** {2 Payload builders}

    Exposed for the CLI's [--format json] renderers and the tests. *)

val perf_to_json : Comdiac.Performance.t -> Obs.Json.t
val perf_of_json : Obs.Json.t -> Comdiac.Performance.t option
val flow_payload : Core.Flow.result -> Obs.Json.t
val mc_payload : n:int -> seed:int -> Comdiac.Montecarlo.result -> Obs.Json.t
val corners_payload : Comdiac.Robustness.result -> Obs.Json.t
val tech_payload : unit -> Obs.Json.t
val stats_payload : unit -> Obs.Json.t
(** Volatile by nature (counters, pool state); served for observability,
    excluded from bit-identity claims. *)
