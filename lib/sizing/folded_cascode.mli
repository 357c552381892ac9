(** Design plan for the paper's example: a PMOS-input folded cascode OTA
    (Fig. 4) with a wide-swing cascoded PMOS mirror load and single-ended
    output.

    Sizing follows the paper's COMDIAC procedure: the DC operating point
    (effective gate voltages) is fixed first from the supply, input
    common-mode and output-range constraints; input-branch current is
    estimated from the GBW target ([gm1 = 2 pi GBW (CL + Cout_par)],
    [I1 = gm1 Veff1 / 2]); widths follow by model inversion (simple
    monotonic iterations); cascode lengths are then shortened — and, at
    minimum length, the cascode branch current raised — until the
    folding-node pole yields the required phase margin; the whole process
    repeats because the output parasitic capacitance moves with the sizes.

    The parasitic knowledge ({!Parasitics.t}) enters everywhere a junction
    or routing capacitance is counted, which is precisely the paper's
    Table 1 experiment. *)

type design = {
  amp : Amp.t;
  i1 : float;         (** input branch current per side, A *)
  i2 : float;         (** cascode branch current per side, A *)
  veff_in : float;
  veff_tail : float;
  veff_nsink : float;
  veff_ncasc : float;
  veff_psrc : float;
  veff_pcasc : float;
  l_casc : float;     (** cascode length after the PM iteration, m *)
  predicted_gbw : float;
  predicted_pm : float;
  predicted_gain_db : float;
  iterations : int;
}

val device_names : string list
(** ["P1"; "P2"; "TAIL"; "P3"; "P4"; "P3C"; "P4C"; "N1C"; "N2C"; "N5";
    "N6"] *)

type knobs = {
  veff_in : float option;
  veff_tail : float option;
  veff_nsink : float option;
  veff_psrc : float option;
  i2_ratio : float option;   (** starting cascode/input branch ratio *)
  l_mult : float option;     (** multiplier on the 2·Lmin non-cascode lengths *)
}
(** Overrides for the plan's own operating-point choices — the search
    variables of the optimizer layer ([Opt]).  [None] fields keep the
    knowledge-based value, so {!no_knobs} reproduces the paper's plan
    bit-identically. *)

val no_knobs : knobs

type dev_eval =
  | Exact_model   (** {!Device.Model.evaluate} / {!Device.Op.compute} *)
  | Lut_model
      (** {!Device.Lut.eval} / {!Device.Op.compute_lut}: interpolated
          operating points for the plan's forward evaluations (the model
          inversions — widths, thresholds, bias voltages — stay exact).
          Approximate; the optimizer's cheap first-pass tier. *)

val size :
  proc:Technology.Process.t ->
  kind:Device.Model.kind ->
  spec:Spec.t ->
  parasitics:Parasitics.t ->
  design
(** [size_with] at the plan's own operating point with exact models.
    Raises [Failure] when the specification cannot be met (e.g. the
    output range does not fit the supply), and
    [Phys.Numerics.No_convergence] when the plan's phase-margin loop does
    not settle within 40 passes. *)

val size_with :
  ?knobs:knobs ->
  ?dev_eval:dev_eval ->
  proc:Technology.Process.t ->
  kind:Device.Model.kind ->
  spec:Spec.t ->
  parasitics:Parasitics.t ->
  unit ->
  design
(** The optimizer entry point: run the same COMDIAC plan with some
    operating-point choices overridden and (optionally) the forward
    device evaluations interpolated from {!Device.Lut} grids.  Raises
    [Failure] when the spec cannot be met and
    [Phys.Numerics.No_convergence] when the plan does not converge under
    the given knob overrides — the optimizer treats both as an infeasible
    candidate. *)

val drain_currents : design -> (string * float) list
(** DC drain current magnitude per device — the information passed to the
    layout tool for the reliability (electromigration) rules. *)

val net_of_drain : string -> string
(** Amp net connected to a device's drain, by device name. *)

val rebias :
  proc:Technology.Process.t ->
  kind:Device.Model.kind ->
  spec:Spec.t ->
  design -> Amp.t
(** Recompute the four bias voltages for the *same* device sizes under a
    different process view (corner, temperature) — the job a tracking
    bias generator performs on silicon.  Device sizes, currents and node
    targets are kept; only vp1/vp2/vc1/vc3 move. *)

val pp_design : Format.formatter -> design -> unit
