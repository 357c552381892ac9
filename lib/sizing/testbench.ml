module El = Netlist.Element
module Ckt = Netlist.Circuit

type t = {
  proc : Technology.Process.t;
  kind : Device.Model.kind;
  spec : Spec.t;
  amp : Amp.t;
  vos : float;               (* nulled differential input *)
  dc : Sim.Dcop.t;           (* offset-nulled differential bench *)
  net_dm : Sim.Acs.t;        (* differential AC view *)
}

(* Open-loop bench: supply, load and the two input sources around the
   common-mode voltage.  [ac] selects differential (+1/2, -1/2) or
   common-mode (+1, +1) stimulus. *)
let open_loop_circuit ?vcm spec amp ~vdiff ~ac_dm ~ac_cm =
  let vcm =
    match vcm with Some v -> v | None -> Spec.input_common_mode spec
  in
  let c = Ckt.create ~title:("bench " ^ amp.Amp.topology) in
  let c = Amp.add_to amp c in
  let c = Ckt.add_vsource c ~name:"dd" ~p:"vdd" ~n:El.ground (El.dc_source spec.Spec.vdd) in
  let c =
    Ckt.add_vsource c ~name:"ip" ~p:"inp" ~n:El.ground
      { El.dc = vcm +. (vdiff /. 2.0); ac = (ac_dm /. 2.0) +. ac_cm; wave = None }
  in
  let c =
    Ckt.add_vsource c ~name:"in" ~p:"inn" ~n:El.ground
      { El.dc = vcm -. (vdiff /. 2.0); ac = (-.ac_dm /. 2.0) +. ac_cm; wave = None }
  in
  Ckt.add_capacitor c ~name:"load" ~p:"out" ~n:El.ground ~c:spec.Spec.cload

(* Supply-rejection bench: the AC stimulus rides on VDD instead. *)
let psrr_circuit spec amp ~vdiff =
  let vcm = Spec.input_common_mode spec in
  let c = Ckt.create ~title:("psrr bench " ^ amp.Amp.topology) in
  let c = Amp.add_to amp c in
  let c =
    Ckt.add_vsource c ~name:"dd" ~p:"vdd" ~n:El.ground
      (El.ac_source ~dc:spec.Spec.vdd 1.0)
  in
  let c =
    Ckt.add_vsource c ~name:"ip" ~p:"inp" ~n:El.ground
      (El.dc_source (vcm +. (vdiff /. 2.0)))
  in
  let c =
    Ckt.add_vsource c ~name:"in" ~p:"inn" ~n:El.ground
      (El.dc_source (vcm -. (vdiff /. 2.0)))
  in
  Ckt.add_capacitor c ~name:"load" ~p:"out" ~n:El.ground ~c:spec.Spec.cload

let solve_dc proc kind spec amp circuit =
  let extra = [ ("vdd", spec.Spec.vdd) ] in
  Sim.Dcop.solve ~guess:(Amp.guess_fn amp ~extra) ~proc ~kind circuit

(* Nulls beyond +/-128 mV are rejected as no null: no mismatch offset
   comes near it, and such solutions come from benches whose inputs have
   left the common-mode range (near VDD the bordered solve lands at
   -0.2 to -1.6 V). *)
let max_offset = 0.128

(* Null the offset: find the differential input that puts the output at
   the quiescent target.  The open-loop output saturates outside a tiny
   input window, so the null is one Newton solve of the bench bordered by
   the input as an unknown and V(out) = target as an equation.  Returns
   the input and the differential bench's operating point there. *)
let null_offset ?vcm proc kind spec amp =
  let c = open_loop_circuit ?vcm spec amp ~vdiff:0.0 ~ac_dm:1.0 ~ac_cm:0.0 in
  let vos, dc =
    Sim.Dcop.null
      ~guess:(Amp.guess_fn amp ~extra:[ ("vdd", spec.Spec.vdd) ])
      ~sources:[ ("ip", 0.5); ("in", -0.5) ]
      ~node:"out" ~target:amp.Amp.quiescent_out ~proc ~kind c
  in
  if Float.abs vos > max_offset then
    raise
      (Phys.Numerics.No_convergence
         (Printf.sprintf "Testbench: offset null at %g V, beyond %g V" vos
            max_offset));
  (vos, dc)

let make ~proc ~kind ~spec amp =
  let vos, dc = null_offset proc kind spec amp in
  { proc; kind; spec; amp; vos; dc; net_dm = Sim.Acs.prepare dc }

let offset t = t.vos
let dc_gain t = Sim.Measure.dc_gain t.net_dm ~out:"out"
let gbw t = Sim.Measure.unity_gain_freq t.net_dm ~out:"out"
let phase_margin t = Sim.Measure.phase_margin t.net_dm ~out:"out"
let phase_margin_at t fu = Sim.Measure.phase_margin_at t.net_dm ~out:"out" fu
let output_resistance t = Sim.Measure.output_resistance t.net_dm ~out:"out"

(* The common-mode bench is solved here, on demand: only [cmrr] reads
   it, and Monte Carlo, corner and optimizer benches never call it. *)
let cmrr t =
  let adm = Sim.Measure.dc_gain t.net_dm ~out:"out" in
  let circuit_cm =
    open_loop_circuit t.spec t.amp ~vdiff:t.vos ~ac_dm:0.0 ~ac_cm:1.0
  in
  let net_cm = Sim.Acs.prepare (solve_dc t.proc t.kind t.spec t.amp circuit_cm) in
  let acm = Sim.Measure.dc_gain net_cm ~out:"out" in
  adm /. Float.max 1e-12 acm

let power t =
  t.spec.Spec.vdd *. Sim.Dcop.supply_current t.dc "dd"

(* Unity-gain follower step: inn strapped to out through a 0 V source, a
   step within the output range drives inp.  Each edge is its own short
   transient from the DC operating point at its start level (v1 for the
   falling edge, v0 for the rising one), with the step at the first time
   point.  It stops a quarter slew time after the output passes its 90%
   level, or after five slew times.  The 10-90% edge timing, with both
   crossings interpolated between time points, rejects the capacitive
   feedthrough spike that a raw max-slope measurement would report. *)
let slew_rate t =
  let spec = t.spec and amp = t.amp in
  let lo, hi = spec.Spec.output_range in
  let v0 = lo +. (0.15 *. (hi -. lo)) and v1 = hi -. (0.15 *. (hi -. lo)) in
  let sr_est = amp.Amp.tail_current /. spec.Spec.cload in
  let t_slew = (v1 -. v0) /. sr_est in
  let edge ~falling =
    let start, target = if falling then (v1, v0) else (v0, v1) in
    let wave tm = if tm > 0.0 then target else start in
    let c = Ckt.create ~title:"slew bench" in
    let c = Amp.add_to amp c in
    let c = Ckt.add_vsource c ~name:"dd" ~p:"vdd" ~n:El.ground (El.dc_source spec.Spec.vdd) in
    let c = Ckt.add_vsource c ~name:"ip" ~p:"inp" ~n:El.ground (El.wave_source ~dc:start wave) in
    let c = Ckt.add_vsource c ~name:"fb" ~p:"inn" ~n:"out" (El.dc_source 0.0) in
    let c = Ckt.add_capacitor c ~name:"load" ~p:"out" ~n:El.ground ~c:spec.Spec.cload in
    let extra =
      [ ("vdd", spec.Spec.vdd); ("inp", start); ("inn", start); ("out", start) ]
    in
    let level frac = start +. (frac *. (target -. start)) in
    let past l v = if falling then v <= l else v >= l in
    let l10 = level 0.1 and l90 = level 0.9 in
    let crossed = ref None in
    let stop tm volt =
      if Option.is_none !crossed && past l90 (volt "out") then crossed := Some tm;
      match !crossed with Some tc -> tm >= tc +. (0.25 *. t_slew) | None -> false
    in
    let res =
      Sim.Tran.run ~proc:t.proc ~kind:t.kind ~tstop:(5.0 *. t_slew)
        ~dt:(t_slew /. 200.0) ~guess:(Amp.guess_fn amp ~extra) ~stop c
    in
    let crossing ?after level =
      Sim.Tran.crossing ?after res "out" ~level ~falling
    in
    match crossing l10 with
    | None -> None
    | Some ta ->
      (match crossing ~after:ta l90 with
       | Some tb when tb > ta -> Some (0.8 *. (v1 -. v0) /. (tb -. ta))
       | Some _ | None -> None)
  in
  match (edge ~falling:true, edge ~falling:false) with
  | Some f, Some r -> Float.min f r
  | Some s, None | None, Some s -> s
  | None, None -> Float.nan

let gain_at t f = Sim.Acs.transfer t.net_dm ~freq:f ~out:"out"

let input_noise_density t ~freq =
  let psd =
    Sim.Noise.input_referred_psd t.dc t.net_dm ~out:"out" ~gain:(gain_at t freq)
      ~freq
  in
  sqrt psd

let integrated_input_noise t ~fmin ~fmax =
  Sim.Noise.integrated_input_noise t.dc t.net_dm ~out:"out"
    ~gain_at:(gain_at t) ~fmin ~fmax

(* Coarse memo over the full measurement suite: the record is a pure
   function of (process, kind, spec, amp) — everything [t] was built
   from — and [performance] is the expensive step the flow repeats on
   identical amps (synthesized vs extracted checks, warm re-runs). *)
let performance_memo :
    ( Technology.Process.t * Device.Model.kind * Spec.t * Amp.t,
      Performance.t )
    Cache.Memo.t =
  Cache.Memo.create ~name:"comdiac.performance" ~shards:8 ~capacity:1024 ()

let performance_exact t =
  let fu, pm =
    match gbw t with
    | Some f -> (f, phase_margin_at t f)
    | None -> (Float.nan, Float.nan)
  in
  let white_freq =
    if Float.is_nan fu then 10e6 else Float.max 1e5 (fu /. 4.0)
  in
  let fmax = if Float.is_nan fu then 100e6 else fu in
  {
    Performance.dc_gain_db = Sim.Measure.db (dc_gain t);
    gbw = fu;
    phase_margin = pm;
    slew_rate = slew_rate t;
    cmrr_db = Sim.Measure.db (cmrr t);
    offset = offset t;
    output_resistance = output_resistance t;
    input_noise = integrated_input_noise t ~fmin:1.0 ~fmax;
    thermal_noise_density = input_noise_density t ~freq:white_freq;
    flicker_noise_density = input_noise_density t ~freq:1.0;
    power = power t;
  }

let performance t =
  Cache.Memo.find_or_compute performance_memo (t.proc, t.kind, t.spec, t.amp)
    (fun () -> performance_exact t)

let operating_point t = t.dc

let psrr t =
  let adm = Sim.Measure.dc_gain t.net_dm ~out:"out" in
  let c = psrr_circuit t.spec t.amp ~vdiff:t.vos in
  let dc = solve_dc t.proc t.kind t.spec t.amp c in
  let net = Sim.Acs.prepare dc in
  let avdd = Sim.Measure.dc_gain net ~out:"out" in
  adm /. Float.max 1e-12 avdd

let gain_at_vcm t vcm =
  match null_offset ~vcm t.proc t.kind t.spec t.amp with
  | _, dc -> Sim.Measure.dc_gain (Sim.Acs.prepare dc) ~out:"out"
  | exception Phys.Numerics.No_convergence _ -> 0.0

let common_mode_range ?(points = 34) t =
  let vdd = t.spec.Spec.vdd in
  let vcms = Phys.Numerics.linspace 0.0 vdd points in
  let gains = Array.map (fun vcm -> gain_at_vcm t vcm) vcms in
  let peak = Array.fold_left Float.max 0.0 gains in
  let ok g = g >= peak /. sqrt 2.0 in
  (* contiguous valid interval containing the nominal common mode *)
  let nominal = Spec.input_common_mode t.spec in
  let nearest = ref 0 in
  Array.iteri
    (fun i v ->
      if Float.abs (v -. nominal) < Float.abs (vcms.(!nearest) -. nominal)
      then nearest := i)
    vcms;
  let rec down i = if i > 0 && ok gains.(i - 1) then down (i - 1) else i in
  let rec up i =
    if i < points - 1 && ok gains.(i + 1) then up (i + 1) else i
  in
  if not (ok gains.(!nearest)) then (nominal, nominal)
  else (vcms.(down !nearest), vcms.(up !nearest))
