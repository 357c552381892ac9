(** Transient analysis: variable-step BDF2 under local truncation error
    control, with a full Newton solve per step.

    The circuit is compiled once per run onto the stamp program the DC
    analysis uses ({!Stamps.compile}), so Newton iterates touch only
    resolved indices.  Each step's Newton iteration starts from a
    predictor: the polynomial through the last accepted points (quadratic
    for BDF2).  The local truncation error of every node voltage is
    estimated from the predictor-corrector difference (Milne's device)
    and held within 100 uV + 1e-3 |v|; a step that fails it, or whose
    Newton iteration does not converge, is halved and retried, and the
    next step is sized from the estimate (at most twice the last, no
    more than the last right after a rejection, at most the maximum
    step).  Explicit capacitors use the exact companion of the
    step's derivative formula; MOS device capacitances are linearised once
    per step, at the predicted solution, with the exact model evaluation,
    so the error estimate sees their effect on the node voltages.

    The integration starts with backward-Euler steps (from the DC point,
    then with a linear predictor) before BDF2 takes over.  Source
    waveforms are watched for edges: a step that would contain one ends
    just before it, and the edge itself, located by bisection of the
    waveforms to within 1/1024 of the maximum step, is crossed by one
    backward-Euler step, after which the integration starts afresh as at
    t = 0.  Steps are never longer than the maximum, so an edge cannot be
    missed as long as waveform phases are longer than it.

    Sources follow their [wave] function when present, their DC value
    otherwise. *)

type result

val run :
  ?backend:Stamps.backend ->
  ?dt:float ->
  ?guess:(string -> float option) ->
  ?gmin:float ->
  ?stop:(float -> (string -> float) -> bool) ->
  proc:Technology.Process.t ->
  kind:Device.Model.kind ->
  tstop:float ->
  Netlist.Circuit.t -> result
(** Simulate from a DC operating point at t = 0 (computed with sources at
    their [wave 0] / DC values) to [tstop].  [dt] is the maximum step
    (default [tstop / 50]); the steps themselves follow the error
    control.  [backend] selects the linear solver as in {!Dcop.solve}
    (default [Kernel]; [Reference] is bit-identical, step for step).
    [gmin] (default [1e-12]) is the conductance to ground stamped on every
    node, both at the t = 0 operating point and during integration.

    Raises [Invalid_argument] naming the argument when [tstop] or [dt] is
    not finite and positive, or when [dt] is below [tstop / 1e5].  Raises
    [Phys.Numerics.No_convergence], naming the time, on a singular
    Jacobian, when halving takes a step below 1e-9 of the maximum, or when
    the run needs more than [50 tstop / dt + 1000] steps.

    [stop t volt] is checked after each accepted step, with the step's
    time and a reader of its node voltages (ground reads 0, an unknown
    node raises [Invalid_argument]).  The run ends at the first step where
    it holds, and the result holds the steps up to and including that one.
    The default never stops early.  Step control depends only on the
    circuit and these arguments, so runs are deterministic, and a stop
    that depends only on the waveform is too.

    With telemetry enabled, adds the accepted steps to [sim.tran.steps],
    the rejected ones to [sim.tran.rejected], and the Newton iterations of
    both to [sim.tran.newton_iters]. *)

val times : result -> float array
val waveform : result -> string -> float array
(** Node voltage waveform.  Raises [Invalid_argument] on unknown nodes. *)

val value_at : result -> string -> float -> float
(** Linear interpolation of a node waveform at an arbitrary time. *)

val crossing :
  ?after:float -> result -> string -> level:float -> falling:bool ->
  float option
(** First time, at or after [after] (default 0), where the node waveform
    has passed [level]: dropped to it or below when [falling], risen to it
    or above otherwise.  The time is interpolated linearly between that
    time point and the one before; when the one before has passed [level]
    too (or there is none), it is the time point itself.  [None] when the
    waveform never passes [level]. *)

val max_slope : result -> string -> float * float
(** [(rising, falling)] maximum d v/d t magnitudes of a node waveform
    between adjacent time points, V/s.  A capacitive feedthrough spike
    counts, so the slew-rate bench ([Comdiac.Testbench.slew_rate]) times
    the 10–90% edge instead. *)

val settling_time :
  result -> string -> target:float -> tol:float -> float option
(** First time after which the waveform stays within [tol] of [target]. *)
