(** Circuit noise analysis.  Each noisy element (MOS channel thermal +
    flicker, resistor thermal) is a current source across its noise
    branch; its transfer impedance to the output node comes from one
    adjoint AC solve per frequency ({!Acs.adjoint}), shared by all
    elements.  Output noise is the PSD-weighted sum of squared transfer
    magnitudes.  Input-referred noise divides by the squared gain from
    the bench's own AC sources, taken from the same adjoint solve. *)

type contribution = {
  element : string;
  thermal : float;  (** contribution to output voltage PSD, V^2/Hz *)
  flicker : float;
}

val output_psd :
  Dcop.t -> Acs.t -> out:string -> freq:float -> float * contribution list
(** Total output voltage noise PSD at [freq] and the per-element split. *)

val input_referred_psd :
  Dcop.t -> Acs.t -> out:string -> freq:float -> float
(** Output PSD divided by |gain|^2, the gain being V(out) for the
    circuit's AC sources at the same frequency. *)

val integrated_output_noise :
  Dcop.t -> Acs.t -> out:string -> fmin:float -> fmax:float -> float
(** RMS output noise voltage over [fmin, fmax], by log-spaced integration
    of the PSD. *)

val integrated_input_noise :
  Dcop.t -> Acs.t -> out:string -> fmin:float -> fmax:float -> float
(** RMS input-referred noise voltage over the band. *)
