(** Transient analysis: fixed-step backward-Euler integration with a full
    Newton solve per step.

    The circuit is compiled once per run onto the stamp program the DC
    analysis uses ({!Stamps.compile}), so Newton iterates touch only
    resolved indices.  Explicit capacitors use the exact companion model;
    MOS device capacitances are linearised once per step, at the previous
    time point, with the exact model evaluation (adequate for the
    slew-rate and settling measurements this library needs, where the load
    capacitor dominates; an error-controlled step would have to see them).

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
    their [wave 0] / DC values) to [tstop].  [dt] defaults to
    [tstop / 2000].  [backend] selects the linear solver as in
    {!Dcop.solve} (default [Kernel]; [Reference] is bit-identical).
    [gmin] (default [1e-12]) is the conductance to ground
    stamped on every node, both at the t = 0 operating point and during
    integration.

    [stop t volt] is checked after each step, with the step's time and a
    reader of its node voltages (ground reads 0, an unknown node raises
    [Invalid_argument]).  The run ends at the first step where it holds,
    and the result holds the steps up to and including that one.  The
    default never stops early.  Steps are fixed, so a stop that depends
    only on the waveform is deterministic.

    With telemetry enabled, adds the steps taken to [sim.tran.steps] and
    their Newton iterations to [sim.tran.newton_iters]. *)

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
