(** Op-amp performance specification — the inputs of the sizing tool
    (paper Table 1 header): supply, gain-bandwidth product, phase margin,
    load, input common-mode range and output range. *)

type t = {
  vdd : float;                    (** supply voltage, V *)
  gbw : float;                    (** gain-bandwidth product target, Hz *)
  phase_margin : float;           (** degrees *)
  cload : float;                  (** load capacitance, F *)
  icmr : float * float;           (** input common-mode range, V *)
  output_range : float * float;   (** output swing, V *)
}

val paper_ota : t
(** The paper's folded cascode OTA specification: VDD = 3.3 V,
    GBW = 65 MHz, PM = 65 deg, CL = 3 pF, ICMR = [-0.55, 1.84] V,
    output range = [0.51, 2.31] V. *)

val input_common_mode : t -> float
(** Mid input common-mode voltage used for the testbenches, clamped to
    [0, vdd]. *)

val output_quiescent : t -> float
(** Mid output-range voltage: the quiescent output target. *)

val validate : t -> (unit, string) result
(** [Error] names the first violated constraint: a non-finite field,
    a non-positive supply, GBW or load, a phase margin outside (0, 90)
    degrees, an empty range, or an output range above the supply. *)

val pp : Format.formatter -> t -> unit
