(** Verification-by-simulation interface: wraps an {!Amp.t} in the
    measurement benches (offset-nulled open loop, common mode, unity-gain
    follower, noise) and extracts the full Table-1 performance record
    using the MNA simulator — with the same transistor models the sizing
    plan used. *)

type t
(** A prepared bench around one amp. *)

val make :
  proc:Technology.Process.t ->
  kind:Device.Model.kind ->
  spec:Spec.t ->
  Amp.t -> t
(** Null the offset of the open-loop bench (one {!Sim.Dcop.null} solve).
    Raises [Phys.Numerics.No_convergence] when the null fails to
    converge or lies beyond +/-128 mV. *)

val open_loop_circuit :
  ?vcm:float -> Spec.t -> Amp.t -> vdiff:float -> ac_dm:float -> ac_cm:float ->
  Netlist.Circuit.t
(** The open-loop bench: supply, load and the input sources at
    [vcm +/- vdiff / 2] (default [vcm]: the spec's input common mode).
    The AC stimulus is [ac_dm] differential plus [ac_cm] common mode. *)

val offset : t -> float
(** Input-referred offset: the differential input that centres the output
    at the quiescent target, V. *)

val dc_gain : t -> float
val gbw : t -> float option
val phase_margin : t -> float option

val phase_margin_at : t -> float -> float
(** Phase margin at a unity-gain frequency already measured by {!gbw}:
    [phase_margin t] is [Option.map (phase_margin_at t) (gbw t)], without
    the second crossing search. *)

val output_resistance : t -> float
val cmrr : t -> float
(** Linear ratio Adm / Acm at low frequency.  Solves the common-mode
    bench on each call; {!make} does not. *)

val slew_rate : t -> float
(** Worst of the rising and falling 10–90% output slopes in the unity-gain
    step bench, V/s.  Each edge is a short transient of its own from the
    DC operating point at its start level, stopped a quarter slew time past
    its 90% crossing; crossing times are interpolated between time
    points. *)

val input_noise_density : t -> freq:float -> float
(** Input-referred voltage noise density at [freq], V/sqrt(Hz). *)

val integrated_input_noise : t -> fmin:float -> fmax:float -> float
val power : t -> float
(** Quiescent dissipation VDD * I(VDD), W. *)

val psrr : t -> float
(** Positive supply rejection: Adm / Avdd at low frequency (linear). *)

val common_mode_range : ?points:int -> t -> float * float
(** Measured input common-mode range: sweep the common-mode voltage over
    [0, vdd] ([points] samples, default 34), re-null the offset at every
    point and report the contiguous interval around the nominal bias where
    the differential gain stays within 3 dB of its peak.  This verifies
    the ICMR row of the specification. *)

val performance : t -> Performance.t
(** Run every measurement and assemble the record.  Thermal density is
    evaluated in the white region (GBW / 4), flicker at 1 Hz, integrated
    noise from 1 Hz to the measured GBW.

    Memoized ([comdiac.performance] in {!Cache.Memo.registry}) keyed by
    (process, kind, spec, amp): repeated measurements of the same amp —
    the flow's synthesized/extracted checks, warm benchmark re-runs —
    return the cached record, bit-identical to recomputation. *)

val operating_point : t -> Sim.Dcop.t
(** The offset-nulled differential-bench operating point (for reports). *)
