(** A full device operating point: large-signal evaluation, small-signal
    conductances and capacitances, plus the noise densities — everything
    the sizing equations and the simulator stamps need. *)

type t = {
  eval : Model.eval;
  caps : Caps.t;
  geom : Folding.geom;
  bias : Model.bias;  (** NMOS-convention (positive) biases *)
}

val compute :
  Technology.Process.t -> Model.kind -> Mos.t -> Model.bias -> t
(** [compute proc kind dev bias] evaluates [dev] at [bias], where [bias]
    is expressed in the device's own polarity convention (all voltages
    positive for a normally-biased device, vbs as reverse magnitude
    negative).  Junction reverse biases are taken as |vdb| and |vsb| with
    vdb = vds - vbs and vsb = -vbs. *)

val caps_at : Technology.Process.t -> Mos.t -> Model.bias -> Model.eval -> Caps.t
(** The capacitance set of {!compute} alone, from an evaluation the caller
    already holds (only its region is read): no geometry assembly and no
    model evaluation.  The transient linearises device capacitances with
    it once per time step. *)

val compute_lut :
  Technology.Process.t -> Model.kind -> Mos.t -> Model.bias -> t
(** Like {!compute} but evaluates the model through the interpolated
    operating-point tables of {!Lut} instead of {!Model.evaluate}.  Fast
    but approximate (saturation-region fit, vbs = 0 grid) — opt-in only;
    never used implicitly by the simulator or the sizing plans.  The
    capacitance and geometry assembly is shared with {!compute}. *)

val ft : t -> float
(** Transit frequency gm / (2 pi (cgs + cgd + cgb)). *)

val intrinsic_gain : t -> float
(** gm / gds. *)

val pp : Format.formatter -> t -> unit
