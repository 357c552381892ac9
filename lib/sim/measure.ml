let db x = 20.0 *. log10 (Float.max 1e-300 (Float.abs x))

let magnitude net ~out freq =
  if (Obs.Config.enabled ()) then Obs.Metrics.incr "sim.measure.points";
  Complex.norm (Acs.transfer net ~freq ~out)

let phase_deg net ~out freq =
  if (Obs.Config.enabled ()) then Obs.Metrics.incr "sim.measure.points";
  let h = Acs.transfer net ~freq ~out in
  Complex.arg h *. 180.0 /. Float.pi

let dc_gain ?(freq = 1.0) net ~out = magnitude net ~out freq

(* Scan the 121-point grid of u = log f from fmin to fmax for the first
   point with [g u <= 0] and refine on u from the bracket's known values. *)
let crossing ~fmin ~fmax g =
  let us = Phys.Numerics.linspace (log fmin) (log fmax) 121 in
  match Phys.Numerics.scan_bracket ~f:g us with
  | None -> None
  | Some (a, fa, b, fb) ->
    Some (exp (Phys.Numerics.brent ~tol:1e-9 ~fa ~fb ~f:g a b))

let unity_gain_freq ?(fmin = 1.0) ?(fmax = 1e11) net ~out =
  Obs.Trace.with_span ~cat:"sim" "measure.unity_gain_freq" @@ fun () ->
  crossing ~fmin ~fmax (fun u -> log (magnitude net ~out (exp u)))

let phase_margin_at net ~out fu =
  let ph = phase_deg net ~out fu in
  (* An inverting or non-inverting amplifier converges to -90 deg at the
     dominant pole either from 180 or 0; normalise so that the margin is
     measured against -180. *)
  let ph = if ph > 90.0 then ph -. 360.0 else ph in
  180.0 +. ph

let phase_margin net ~out =
  Option.map (phase_margin_at net ~out) (unity_gain_freq net ~out)

let gain_poles_summary net ~out =
  match unity_gain_freq net ~out with
  | None -> None
  | Some fu -> Some (db (dc_gain net ~out), fu, phase_margin_at net ~out fu)

let output_resistance ?(freq = 1.0) net ~out =
  Complex.norm (Acs.output_impedance net ~freq ~out)

let bandwidth_3db ?(fmin = 1.0) ?(fmax = 1e11) net ~out =
  Obs.Trace.with_span ~cat:"sim" "measure.bandwidth_3db" @@ fun () ->
  let target = dc_gain ~freq:fmin net ~out /. sqrt 2.0 in
  crossing ~fmin ~fmax (fun u -> magnitude net ~out (exp u) -. target)
