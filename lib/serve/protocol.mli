(** The [losac.job/1] wire API: versioned JSON request/response records
    shared verbatim by the one-shot CLI ([losac <cmd> --format json]) and
    the {!Server} daemon, so a served job and the CLI run are the same
    code path and their result documents are byte-identical.

    A {e request} names a workload (a flow case, a sizing run, a Monte
    Carlo or corner verification, or a cheap diagnostic), the technology
    and model, spec overrides (absent fields keep the paper's Table-1
    values), execution-context flags that map onto a scoped
    {!Exec.Ctx.t} (jobs/cache/seed), an optional cooperative
    timeout, and a telemetry opt-in.

    A {e response} carries a status built on {!Sim.Sim_error.t} (plus
    the admission-control rejections [overloaded], [invalid_request],
    [internal_error] and [shutting_down]) and a {e deterministic} result
    payload; everything volatile (elapsed time, queue wait) lives in a
    separate [meta] object that {!canonical} strips, so canonical forms
    of the same job are byte-comparable across processes and runs.

    On a connection the server may interleave {e events} (job [ack]ed
    with the queue depth, [started], optional [telemetry]) before the
    final [result] message; all messages carry the API version and the
    request id. *)

type workload =
  | Ping  (** liveness probe; payload [{"pong":true}] *)
  | Sleep of { seconds : float }
      (** diagnostic busy-job for admission-control and timeout testing *)
  | Tech  (** characterise the built-in technologies *)
  | Stats  (** cache/pool observability snapshot (payload is volatile) *)
  | Synth of { case : Core.Flow.case }  (** one Table-1 flow case *)
  | Size of { topology : string }
      (** size an op-amp ([folded-cascode], [two-stage] or [5t]) *)
  | Mc of { n : int; seed : int }  (** Monte Carlo mismatch verification *)
  | Corners  (** corner/temperature sweep of the sized amp *)
  | Verify of { samples : int; seed : int }
      (** the CLI [verify] bundle: Monte Carlo + rebias corner sweep +
          PSRR + common-mode range *)
  | Optimize of { starts : int; budget : int; strategy : string; lut : bool }
      (** multi-start optimization over sizing-plan inputs
          ({!Opt.Search.run}): [strategy] is ["nm"] or ["anneal"], [lut]
          selects the LUT-interpolated coarse tier, and the seed comes
          from the request's [ctx.seed] (resolved like every execution
          switch).  Additive in [losac.job/1]. *)
  | Cancel of { target : int }
      (** cancel the queued or running job with id [target] {e on the
          same connection}: sets its cooperative cancellation token
          (deadline moved to now), so the job answers [Cancelled] at its
          next interruption point.  Handled by the reader thread, never
          queued — it cannot wait behind the job it cancels.  The
          cancel request itself answers [Done] with
          [{"target":id,"cancelled":bool}] ([false] when no such job is
          pending).  Additive in [losac.job/1]. *)

type request = {
  id : int;
  workload : workload;
  proc : string;  (** technology name, resolved via {!Technology.Process.find} *)
  kind : Device.Model.kind;
  spec : Comdiac.Spec.t;
  jobs : int option;
  cache : bool option;
  seed : int option;
      (** base RNG seed ({!Exec.Ctx.seed}); additive [ctx.seed] wire
          field *)
  timeout_s : float option;
      (** cooperative per-job deadline, enforced between samples /
          corner points / flow iterations *)
  telemetry : bool;  (** stream a telemetry event before the result *)
}

val request :
  ?id:int -> ?proc:string -> ?kind:Device.Model.kind ->
  ?spec:Comdiac.Spec.t -> ?jobs:int -> ?cache:bool ->
  ?seed:int -> ?timeout_s:float ->
  ?telemetry:bool ->
  workload -> request
(** Request with CLI-default technology ([c06]), model ([bsim-lite]) and
    spec ({!Comdiac.Spec.paper_ota}). *)

type status =
  | Done
  | Failed of Sim.Sim_error.t
  | Bad_request of string
  | Internal of string
  | Overloaded of { depth : int; limit : int }
  | Shutting_down
  | Cancelled
      (** the job was cancelled (via {!constructor:Cancel}) before or
          during execution; additive status in [losac.job/1] *)

type response = {
  rid : int;
  workload : string;
  status : status;
  payload : Obs.Json.t;  (** deterministic result record; [Null] on failure *)
  meta : (string * Obs.Json.t) list;  (** volatile: elapsed, queue wait *)
}

type event =
  | Ack of { rid : int; queue_depth : int }
  | Started of { rid : int }
  | Telemetry of { rid : int; body : Obs.Json.t }

type message = Event of event | Final of response

val version : string
(** ["losac.job/1"]. *)

val workload_name : workload -> string
val case_to_int : Core.Flow.case -> int
val case_of_int : int -> Core.Flow.case option
val kind_of_string : string -> Device.Model.kind option

val request_to_json : request -> Obs.Json.t
val request_of_json : Obs.Json.t -> (request, string) result
(** Strict decode: version-checked, unknown workloads and ill-typed
    fields rejected with a message; optional fields get CLI defaults.
    The removed [ctx.backend] field is accepted only as ["kernel"] (a
    no-op); any other value is rejected. *)

val salvage_id : Obs.Json.t -> int
(** Best-effort id of an arbitrary (possibly invalid) request document,
    for error responses; [-1] when absent. *)

val spec_to_json : Comdiac.Spec.t -> Obs.Json.t
val sim_error_to_json : Sim.Sim_error.t -> Obs.Json.t
val status_string : status -> string

val response_to_json : response -> Obs.Json.t
(** Full response document, including the volatile [meta] object. *)

val canonical : response -> string
(** The response serialized with [meta] stripped: the byte-comparable
    form.  Two runs of the same request — served or one-shot, warm or
    cold cache, any jobs count — produce equal canonical strings. *)

val event_to_json : event -> Obs.Json.t

val message_of_json : Obs.Json.t -> (message, string) result
(** Decode one server-to-client message (event or final result). *)
