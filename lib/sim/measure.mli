(** Frequency-domain measurement extraction on a prepared AC network:
    gains, unity-gain frequency, phase margin, output resistance.  The
    testbench (which sources carry the AC stimulus, which node is the
    output) is encoded in the circuit by the caller. *)

val db : float -> float
(** 20 log10 |x|. *)

val magnitude : Acs.t -> out:string -> float -> float
(** |H(f)| at node [out] for the circuit's AC sources. *)

val phase_deg : Acs.t -> out:string -> float -> float
(** Phase of H(f) in degrees, unwrapped into (-360, 360] relative to the
    principal value — adequate for the two-pole responses measured here. *)

val dc_gain : ?freq:float -> Acs.t -> out:string -> float
(** Low-frequency gain magnitude (default measured at 1 Hz). *)

val unity_gain_freq :
  ?fmin:float -> ?fmax:float -> Acs.t -> out:string -> float option
(** Frequency where |H| crosses 1: the first point of a 121-point log
    sweep with |H| <= 1, found by {!Phys.Numerics.scan_bracket}, and the
    point before it bracket a Brent refinement on log-frequency.  [None]
    when |H| never reaches 1 in the range (default 1 Hz .. 100 GHz). *)

val phase_margin : Acs.t -> out:string -> float option
(** 180 + phase(H(fu)) in degrees at the unity-gain frequency. *)

val phase_margin_at : Acs.t -> out:string -> float -> float
(** [phase_margin_at net ~out fu] is the phase margin at a unity-gain
    frequency [fu] the caller has already measured, without searching
    for the crossing again: [phase_margin net ~out] is
    [Option.map (phase_margin_at net ~out) (unity_gain_freq net ~out)]. *)

val gain_poles_summary :
  Acs.t -> out:string -> (float * float * float) option
(** [(dc_gain_db, fu, pm_deg)] convenience bundle; [None] if no unity
    crossing. *)

val output_resistance : ?freq:float -> Acs.t -> out:string -> float
(** |Zout| at [freq] (default 1 Hz) with sources zeroed. *)

val bandwidth_3db : ?fmin:float -> ?fmax:float -> Acs.t -> out:string -> float option
(** -3 dB frequency relative to the low-frequency gain. *)
