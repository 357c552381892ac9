(** Transient analysis: fixed-step backward-Euler integration with a full
    Newton solve per step.  Explicit capacitors use the exact companion
    model; MOS device capacitances are linearised per step at the previous
    time point (adequate for the slew-rate and settling measurements this
    library needs, where the load capacitor dominates).

    Sources follow their [wave] function when present, their DC value
    otherwise. *)

type result

val run :
  ?backend:Stamps.backend ->
  ?dt:float ->
  ?guess:(string -> float option) ->
  ?gmin:float ->
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
    integration. *)

val times : result -> float array
val waveform : result -> string -> float array
(** Node voltage waveform.  Raises [Invalid_argument] on unknown nodes. *)

val value_at : result -> string -> float -> float
(** Linear interpolation of a node waveform at an arbitrary time. *)

val max_slope : result -> string -> float * float
(** [(rising, falling)] maximum d v/d t magnitudes of a node waveform, V/s
    — the slew-rate measurement. *)

val settling_time :
  result -> string -> target:float -> tol:float -> float option
(** First time after which the waveform stays within [tol] of [target]. *)
