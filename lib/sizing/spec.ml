type t = {
  vdd : float;
  gbw : float;
  phase_margin : float;
  cload : float;
  icmr : float * float;
  output_range : float * float;
}

let paper_ota = {
  vdd = 3.3;
  gbw = 65e6;
  phase_margin = 65.0;
  cload = 3e-12;
  icmr = (-0.55, 1.84);
  output_range = (0.51, 2.31);
}

let input_common_mode t =
  let lo, hi = t.icmr in
  Float.min t.vdd (Float.max 0.0 ((lo +. hi) /. 2.0))

let output_quiescent t =
  let lo, hi = t.output_range in
  (lo +. hi) /. 2.0

let validate t =
  let lo_i, hi_i = t.icmr and lo_o, hi_o = t.output_range in
  if
    not
      (List.for_all Float.is_finite
         [ t.vdd; t.gbw; t.phase_margin; t.cload; lo_i; hi_i; lo_o; hi_o ])
  then Error "every spec field must be a finite number"
  else if t.vdd <= 0.0 then Error "vdd must be positive"
  else if t.gbw <= 0.0 then Error "gbw must be positive"
  else if t.phase_margin <= 0.0 || t.phase_margin >= 90.0 then
    Error "phase margin must be in (0, 90) degrees"
  else if t.cload <= 0.0 then Error "cload must be positive"
  else if lo_i >= hi_i then Error "empty input common-mode range"
  else if lo_o >= hi_o then Error "empty output range"
  else if hi_o > t.vdd then Error "output range exceeds supply"
  else Ok ()

let pp fmt t =
  let si = Phys.Units.to_si_string in
  let lo_i, hi_i = t.icmr and lo_o, hi_o = t.output_range in
  Format.fprintf fmt
    "VDD=%.2f V  GBW=%s  PM=%.1f deg  CL=%s  ICMR=[%.2f, %.2f] V  \
     out=[%.2f, %.2f] V"
    t.vdd (si "Hz" t.gbw) t.phase_margin (si "F" t.cload) lo_i hi_i lo_o hi_o
