(** Execution context — one value bundling everything a long-running
    analysis needs about {e how} to run: the process card, the domain
    pool width, and the cache and telemetry switches.

    Before this module, every entry point grew its own ad-hoc [?jobs]
    (and would have grown [?cache] and [?telemetry] next); callers had to
    thread three loose knobs through every layer.  A [Ctx.t] is built
    once — normally by the CLI from its flags — and passed as [?ctx] to
    [Core.Flow.run_all], [Comdiac.Montecarlo.run] and
    [Comdiac.Robustness.run].  The old [?jobs] parameters remain as
    deprecated overrides so existing callers compile unchanged.

    The context is plain data (plus one atomic cancellation token) and
    safe to share across domains; {!scope} applies the switch fields as
    {e context-local} bindings ({!Obs.Fluid}: domain-local storage with
    the process global as fallback), so nested scopes behave like
    dynamic binding and two scopes with conflicting switches can run
    concurrently on different domains — the job server's executors —
    without observing each other.  Resolution order for every switch:
    explicit override > ctx binding > global > built-in default. *)

type t = {
  proc : Technology.Process.t;  (** technology the analysis runs on *)
  jobs : int option;
      (** domain-pool width; [None] = {!Par.Pool.default_jobs} *)
  cache : bool option;
      (** force memo caches on/off; [None] = leave {!Cache.Config} alone *)
  telemetry : bool option;
      (** force telemetry on/off; [None] = leave {!Obs.Config} alone *)
  label : string option;
      (** when set, {!scope} wraps the work in a root [exec] span named
          [label], so profiler paths and flamegraphs group everything
          under one run (e.g. ["synth:miller_ota"]) *)
  deadline : float option;
      (** absolute {!Obs.Clock.monotonic_s} instant after which
          {!check_deadline} raises — the cooperative per-request timeout
          of the job server.  [None] = no deadline. *)
  cancel : bool Atomic.t;
      (** cooperative cancellation token: once set, {!check_deadline}
          raises at its next poll, exactly as if the deadline had moved
          to now.  The job server shares this token with its [cancel]
          wire request; sharing one token across contexts makes them
          cancel together. *)
  seed : int option;
      (** base RNG seed for every stochastic analysis in scope (Monte
          Carlo draws, optimizer starts); [None] = the [LOSAC_SEED]
          environment variable, then the built-in default (42).  Each
          analysis still derives independent per-sample SplitMix64
          streams from this one base value, so two analyses sharing a
          context do not correlate. *)
}

val make :
  ?jobs:int -> ?cache:bool -> ?telemetry:bool ->
  ?label:string ->
  ?deadline:float ->
  ?cancel:bool Atomic.t ->
  ?seed:int ->
  Technology.Process.t -> t
(** [make proc] is a context with all switches at their defaults (and a
    fresh, unset cancellation token unless [?cancel] supplies a shared
    one). *)

val with_timeout : float option -> t -> t
(** [with_timeout (Some t) ctx] sets [ctx.deadline] to now + [t]
    seconds; [None] leaves the context unchanged. *)

val cancelled : t option -> bool
(** Whether the context's cancellation token is set ([false] without a
    context). *)

val check_deadline : ?analysis:string -> t option -> unit
(** Raise [Sim.Sim_error.Deadline_exceeded (analysis, overshoot)] when
    the context's deadline has passed {e or} its cancellation token is
    set (overshoot [0.] — cancellation is "deadline moved to now"); a
    no-op without a context or a deadline.  Analyses call this at safe
    interruption boundaries —
    between Monte Carlo samples, corner points and sizing/layout
    iterations — so a timed-out request is abandoned cooperatively
    (never mid-solve) and surfaces as {!Sim.Sim_error.Timeout} through
    the [_result] entry points.  Cheap enough for per-sample use (one
    clock read). *)

val jobs : ?override:int -> t option -> int option
(** Resolve the pool width to pass to {!Par.Pool} combinators: an
    explicit [?jobs] argument wins over [ctx.jobs]; [None] defers to the
    pool's own default. *)

val seed : ?override:int -> t option -> int
(** Resolve the RNG seed the same way as every other switch: explicit
    [?seed] argument > [ctx.seed] > the [LOSAC_SEED] environment
    variable > 42.  This is what makes `losac optimize`, `losac job mc`
    and `bench` reproducible from the command line: the same resolved
    seed always produces bit-identical results at any jobs count. *)

val proc : ?override:Technology.Process.t -> t option -> Technology.Process.t
(** Resolve the process: an explicit [~proc] argument wins over
    [ctx.proc].  Raises [Invalid_argument] when neither is given —
    entry points keep [?proc] optional only so that pre-[Ctx] call
    sites still compile. *)

val scope : t option -> (unit -> 'a) -> ('a, exn) result
(** [scope ctx f] runs [f] with the context's cache and telemetry
    switches bound {e context-locally} on the calling domain
    ([None] fields leave the outer binding or global visible), restored
    afterwards even on exceptions.  Nothing global is written: globals
    are unchanged during and after the scope, and concurrent scopes
    with conflicting switches are isolated (the pool propagates the
    bindings to worker domains per batch).  The result is returned as
    [Ok]/[Error] so callers can re-raise outside the scope; use {!run}
    for the raising variant. *)

val run : t option -> (unit -> 'a) -> 'a
(** {!scope} that re-raises. *)
