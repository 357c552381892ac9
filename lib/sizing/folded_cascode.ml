module El = Netlist.Element
module E = Technology.Electrical
module P = Technology.Process
module M = Device.Model
module F = Device.Folding

type design = {
  amp : Amp.t;
  i1 : float;
  i2 : float;
  veff_in : float;
  veff_tail : float;
  veff_nsink : float;
  veff_ncasc : float;
  veff_psrc : float;
  veff_pcasc : float;
  l_casc : float;
  predicted_gbw : float;
  predicted_pm : float;
  predicted_gain_db : float;
  iterations : int;
}

let device_names =
  [ "P1"; "P2"; "TAIL"; "P3"; "P4"; "P3C"; "P4C"; "N1C"; "N2C"; "N5"; "N6" ]

let net_of_drain = function
  | "P1" -> "n1"
  | "P2" -> "n2"
  | "TAIL" -> "tail"
  | "P3" -> "n4l"
  | "P4" -> "n4r"
  | "P3C" -> "n3"
  | "P4C" -> "out"
  | "N1C" -> "n3"
  | "N2C" -> "out"
  | "N5" -> "n1"
  | "N6" -> "n2"
  | name -> invalid_arg ("Folded_cascode.net_of_drain: " ^ name)

(* Zero diffusion: lets the "no layout capacitances" view (case 1) simulate
   with junction capacitances suppressed while gate capacitances remain. *)
let zero_geom w =
  { F.ad = 0.0; as_ = 0.0; pd = 0.0; ps = 0.0;
    finger_w = w; drain_strips = 1; source_strips = 1 }

(* Saturation margin added on top of Veff when placing internal nodes. *)
let sat_margin = 0.12

type sizes = {
  w_in : float;
  w_tail : float;
  w_nsink : float;
  w_ncasc : float;
  w_psrc : float;
  w_pcasc : float;
  l_in : float;
  l_tail : float;
  l_nsink : float;
  l_psrc : float;
  l_cascode : float;
}

let rad_to_deg = 180.0 /. Float.pi

type knobs = {
  veff_in : float option;
  veff_tail : float option;
  veff_nsink : float option;
  veff_psrc : float option;
  i2_ratio : float option;
  l_mult : float option;
}

let no_knobs =
  { veff_in = None; veff_tail = None; veff_nsink = None; veff_psrc = None;
    i2_ratio = None; l_mult = None }

type dev_eval = Exact_model | Lut_model

let size_with ?(knobs = no_knobs) ?(dev_eval = Exact_model) ~proc ~kind ~spec
    ~parasitics () =
  Obs.Trace.with_span ~cat:"comdiac" "comdiac.size.folded_cascode" @@ fun () ->
  (match Spec.validate spec with
   | Ok () -> ()
   | Error msg -> failwith ("Folded_cascode.size: " ^ msg));
  let nmos = proc.P.electrical.E.nmos and pmos = proc.P.electrical.E.pmos in
  let vdd = spec.Spec.vdd in
  let out_lo, out_hi = spec.Spec.output_range in
  let _, icm_hi = spec.Spec.icmr in
  let vcm = Spec.input_common_mode spec in
  let out_q = Spec.output_quiescent spec in
  let knob k plan = match k with Some v -> v | None -> plan in
  (* 1. fix the operating point: effective gate voltages from the range
     constraints (two stacked devices must fit inside each margin); a
     knob overrides the plan's own choice — the optimizer's search
     variables enter exactly here, everything downstream follows *)
  let veff_nsink = knob knobs.veff_nsink (Float.max 0.12 (0.85 *. out_lo /. 2.0)) in
  let veff_ncasc = veff_nsink in
  let veff_psrc =
    knob knobs.veff_psrc (Float.max 0.15 (0.85 *. (vdd -. out_hi) /. 2.0))
  in
  let veff_pcasc = veff_psrc in
  (* input pair: the high end of the ICM range must leave room for
     vgs_in + veff_tail below the supply *)
  let headroom = vdd -. icm_hi -. pmos.E.vto in
  if headroom < 0.2 then
    failwith "Folded_cascode.size: input common-mode range too high for supply";
  let veff_in = knob knobs.veff_in (Float.min 0.20 (0.35 *. headroom)) in
  let veff_tail =
    knob knobs.veff_tail (Float.min 0.35 (0.55 *. (headroom -. veff_in)))
  in
  let lmin = P.lmin proc in
  (* multiplying by the default 1.0 is bit-exact, so the no-knobs path
     reproduces the original plan identically *)
  let l_scale = knob knobs.l_mult 1.0 in
  let l_in = 2.0 *. lmin *. l_scale in
  let l_tail = 2.0 *. lmin *. l_scale in
  let l_nsink = 2.0 *. lmin *. l_scale in
  let l_psrc = 2.0 *. lmin *. l_scale in
  (* intended node voltages *)
  let v_n1 = veff_nsink +. sat_margin in
  let v_n4 = vdd -. (veff_psrc +. sat_margin) in
  (* device construction helper: applies the parasitic view *)
  let mk name mtype w l =
    let dev = Device.Mos.make ~name ~mtype ~w ~l () in
    let dev = Parasitics.apply_to_device parasitics dev in
    match parasitics.Parasitics.diffusion with
    | Parasitics.No_diffusion ->
      { dev with Device.Mos.diffusion = Some (zero_geom w) }
    | Parasitics.Assume_single_fold | Parasitics.Layout_exact -> dev
  in
  (* width for a drain current at a chosen overdrive *)
  let width_for mtype ~l ~veff ~ids ~vds ~vbs =
    let p = match mtype with E.Nmos -> nmos | E.Pmos -> pmos in
    let vth = M.threshold kind p ~l ~vbs in
    let bias = { M.vgs = vth +. veff; vds; vbs } in
    match dev_eval with
    | Exact_model -> M.w_for_current kind p ~l ~ids bias
    | Lut_model ->
      (* invert the interpolant, not the exact model: the LUT plan must
         be internally consistent or the fixed point amplifies the grid
         error into feasibility flips *)
      Device.Lut.w_for_current proc kind ~mtype ~l ~ids bias
  in
  let op_of dev ~ids:_ ~vgs ~vds ~vbs =
    match dev_eval with
    | Exact_model -> Device.Op.compute proc kind dev { M.vgs; vds; vbs }
    | Lut_model -> Device.Op.compute_lut proc kind dev { M.vgs; vds; vbs }
  in
  (* one full evaluation of the design plan at a given cascode length,
     branch-current ratio and assumed output parasitic capacitance *)
  let cload = spec.Spec.cload in
  let evaluate_plan ~cout_par ~l_casc ~i2_ratio =
    (* one width/length evaluation pass over every device of the plan *)
    if (Obs.Config.enabled ()) then Obs.Metrics.incr "comdiac.fc.plan_evals";
    let gm1 = 2.0 *. Float.pi *. spec.Spec.gbw *. (cload +. cout_par) in
    (* input-pair width directly from the required gm using the actual
       model (the square-law gm = 2 Id / Veff heuristic under-sizes once
       mobility degradation bites); both gm and Id scale linearly in W *)
    let vds_in = vcm +. pmos.E.vto +. veff_in -. v_n1 in
    let w_unit = 1e-6 in
    let eval_in =
      let bias = { M.vgs = pmos.E.vto +. veff_in; vds = vds_in; vbs = 0.0 } in
      match dev_eval with
      | Exact_model -> M.evaluate kind pmos ~w:w_unit ~l:l_in bias
      | Lut_model ->
        Device.Lut.eval proc kind
          (Device.Mos.make ~name:"P1" ~mtype:E.Pmos ~w:w_unit ~l:l_in ())
          bias
    in
    let w_in = gm1 /. eval_in.M.gm *. w_unit in
    let i1 = eval_in.M.ids *. (w_in /. w_unit) in
    let i2 = i2_ratio *. i1 in
    let isink = i1 +. i2 in
    let w_tail =
      width_for E.Pmos ~l:l_tail ~veff:veff_tail ~ids:(2.0 *. i1)
        ~vds:(vdd -. (vcm +. pmos.E.vto +. veff_in)) ~vbs:0.0
    in
    let w_nsink =
      width_for E.Nmos ~l:l_nsink ~veff:veff_nsink ~ids:isink ~vds:v_n1
        ~vbs:0.0
    in
    let w_ncasc =
      width_for E.Nmos ~l:l_casc ~veff:veff_ncasc ~ids:i2
        ~vds:(out_q -. v_n1) ~vbs:(-.v_n1)
    in
    let w_psrc =
      width_for E.Pmos ~l:l_psrc ~veff:veff_psrc ~ids:i2 ~vds:(vdd -. v_n4)
        ~vbs:0.0
    in
    let w_pcasc =
      width_for E.Pmos ~l:l_casc ~veff:veff_pcasc ~ids:i2 ~vds:(v_n4 -. out_q)
        ~vbs:(-.(vdd -. v_n4))
    in
    let sizes =
      { w_in; w_tail; w_nsink; w_ncasc; w_psrc; w_pcasc;
        l_in; l_tail; l_nsink; l_psrc; l_cascode = l_casc }
    in
    (* operating points at intended biases for capacitance accounting *)
    let dev_in = mk "P1" E.Pmos w_in l_in in
    let dev_sink = mk "N5" E.Nmos w_nsink l_nsink in
    let dev_ncasc = mk "N2C" E.Nmos w_ncasc l_casc in
    let dev_ncasc_l = mk "N1C" E.Nmos w_ncasc l_casc in
    let dev_psrc = mk "P3" E.Pmos w_psrc l_psrc in
    let dev_pcasc = mk "P4C" E.Pmos w_pcasc l_casc in
    let op_in =
      op_of dev_in ~ids:i1
        ~vgs:(pmos.E.vto +. veff_in)
        ~vds:vds_in ~vbs:0.0
    in
    let op_sink =
      op_of dev_sink ~ids:isink ~vgs:(nmos.E.vto +. veff_nsink) ~vds:v_n1
        ~vbs:0.0
    in
    let vth_nc = M.threshold kind nmos ~l:l_casc ~vbs:(-.v_n1) in
    let op_ncasc =
      op_of dev_ncasc ~ids:i2 ~vgs:(vth_nc +. veff_ncasc)
        ~vds:(out_q -. v_n1) ~vbs:(-.v_n1)
    in
    let op_ncasc_l =
      op_of dev_ncasc_l ~ids:i2 ~vgs:(vth_nc +. veff_ncasc)
        ~vds:(0.8 *. (vdd -. v_n1)) ~vbs:(-.v_n1)
    in
    let op_psrc =
      op_of dev_psrc ~ids:i2 ~vgs:(pmos.E.vto +. veff_psrc) ~vds:(vdd -. v_n4)
        ~vbs:0.0
    in
    let vth_pc = M.threshold kind pmos ~l:l_casc ~vbs:(-.(vdd -. v_n4)) in
    let op_pcasc =
      op_of dev_pcasc ~ids:i2 ~vgs:(vth_pc +. veff_pcasc)
        ~vds:(v_n4 -. out_q) ~vbs:(-.(vdd -. v_n4))
    in
    let caps (op : Device.Op.t) = op.Device.Op.caps in
    let node_cap net = Parasitics.node_cap parasitics net in
    (* output node: cascode drains plus their gate-drain overlaps (gates
       are at AC ground) plus routing *)
    let c_out =
      (caps op_ncasc).Device.Caps.cdb +. (caps op_ncasc).Device.Caps.cgd
      +. (caps op_pcasc).Device.Caps.cdb +. (caps op_pcasc).Device.Caps.cgd
      +. node_cap "out"
    in
    (* folding node: input-pair drain, sink drain, cascode source side *)
    let c_n1 =
      (caps op_in).Device.Caps.cdb +. (caps op_in).Device.Caps.cgd
      +. (caps op_sink).Device.Caps.cdb +. (caps op_sink).Device.Caps.cgd
      +. (caps op_ncasc).Device.Caps.csb +. (caps op_ncasc).Device.Caps.cgs
      +. node_cap "n1"
    in
    (* mirror node: left cascode drains plus both mirror gates *)
    let c_n3 =
      (caps op_ncasc_l).Device.Caps.cdb +. (caps op_ncasc_l).Device.Caps.cgd
      +. (caps op_pcasc).Device.Caps.cdb
      +. (2.0 *. Device.Caps.total_gate (caps op_psrc))
      +. node_cap "n3"
    in
    let gm_nc = op_ncasc.Device.Op.eval.M.gm in
    let fu = gm1 /. (2.0 *. Float.pi *. (cload +. c_out)) in
    let p2 = gm_nc /. (2.0 *. Float.pi *. c_n1) in
    let p3 = op_pcasc.Device.Op.eval.M.gm /. (2.0 *. Float.pi *. c_n3) in
    (* the mirror pole comes with a left-half-plane zero at twice its
       frequency (current doubling through the mirror), which returns part
       of the phase *)
    let pm =
      90.0
      -. (atan (fu /. p2) *. rad_to_deg)
      -. (atan (fu /. p3) *. rad_to_deg)
      +. (atan (fu /. (2.0 *. p3)) *. rad_to_deg)
    in
    let gain =
      let ro_n = 1.0 /. op_ncasc.Device.Op.eval.M.gds in
      let ro_sink = 1.0 /. op_sink.Device.Op.eval.M.gds in
      let ro_in = 1.0 /. op_in.Device.Op.eval.M.gds in
      let ro_p = 1.0 /. op_pcasc.Device.Op.eval.M.gds in
      let ro_src = 1.0 /. op_psrc.Device.Op.eval.M.gds in
      let r_bottom = ro_sink *. ro_in /. (ro_sink +. ro_in) in
      let r_down = gm_nc *. ro_n *. r_bottom in
      let r_up = op_pcasc.Device.Op.eval.M.gm *. ro_p *. ro_src in
      gm1 *. (r_down *. r_up /. (r_down +. r_up))
    in
    (sizes, i1, i2, fu, pm, 20.0 *. log10 gain, gm1, c_out)
  in
  (* the PM knob, per the paper: iterate on the cascode length.  Each outer
     pass picks the LONGEST length on the ladder that still meets the
     phase-margin target (longest = least power and area, most gain); when
     even the minimum length falls short, the cascode branch current is
     raised instead.  The outer loop is a damped fixed point on the output
     parasitic capacitance. *)
  let lmin_l = lmin in
  let ladder =
    List.map (fun k -> k *. lmin_l) [ 4.0; 3.2; 2.6; 2.0; 1.6; 1.3; 1.0 ]
  in
  let pm_slack = 1.0 in
  let rec outer ~cout_par ~i2_ratio ~iter =
    if iter > 40 then
      raise
        (Phys.Numerics.No_convergence
           "Folded_cascode.size: sizing did not converge")
    else begin
      let rec pick = function
        | [] -> None
        | l :: rest ->
          let (_, _, _, _, pm, _, _, _) as ev =
            evaluate_plan ~cout_par ~l_casc:l ~i2_ratio
          in
          if pm >= spec.Spec.phase_margin +. pm_slack then Some (l, ev)
          else pick rest
      in
      match pick ladder with
      | None ->
        (* even the shortest cascode falls short: more branch current *)
        outer ~cout_par ~i2_ratio:(i2_ratio *. 1.12) ~iter:(iter + 1)
      | Some (l_casc, (sizes, i1, i2, fu, pm, gain_db, gm1, c_out)) ->
        let converged =
          Float.abs (c_out -. cout_par) <= 0.005 *. (cload +. c_out)
        in
        if converged then
          (sizes, i1, i2, fu, pm, gain_db, gm1, c_out, iter, l_casc)
        else
          outer
            ~cout_par:((0.5 *. cout_par) +. (0.5 *. c_out))
            ~i2_ratio ~iter:(iter + 1)
    end
  in
  let sizes, i1, i2, fu, pm, gain_db, gm1, _c_out, iters, _l =
    outer ~cout_par:0.0 ~i2_ratio:(knob knobs.i2_ratio 1.2) ~iter:0
  in
  if (Obs.Config.enabled ()) then begin
    Obs.Metrics.incr "comdiac.fc.sizings";
    Obs.Metrics.add "comdiac.fc.outer_iters" (float_of_int iters);
    Obs.Trace.add_arg "outer_iters" (Obs.Trace.Int iters);
    Obs.Trace.add_arg "predicted_gbw" (Obs.Trace.Float fu);
    Obs.Trace.add_arg "predicted_pm" (Obs.Trace.Float pm)
  end;
  let isink = i1 +. i2 in
  (* bias voltages by model inversion on the final sizes *)
  let vgs_of mtype ~w ~l ~ids ~vds ~vbs =
    match dev_eval with
    | Exact_model ->
      let p = match mtype with E.Nmos -> nmos | E.Pmos -> pmos in
      M.vgs_for_current kind p ~w ~l ~ids ~vds ~vbs
    | Lut_model -> Device.Lut.vgs_for_current proc kind ~mtype ~w ~l ~ids ~vds ~vbs
  in
  let vgs_in =
    vgs_of E.Pmos ~w:sizes.w_in ~l:sizes.l_in ~ids:i1
      ~vds:(vcm +. pmos.E.vto +. veff_in -. v_n1) ~vbs:0.0
  in
  let v_tail = vcm +. vgs_in in
  let vp2 = vgs_of E.Nmos ~w:sizes.w_nsink ~l:sizes.l_nsink ~ids:isink ~vds:v_n1 ~vbs:0.0 in
  let vc1 =
    v_n1
    +. vgs_of E.Nmos ~w:sizes.w_ncasc ~l:sizes.l_cascode ~ids:i2
         ~vds:(out_q -. v_n1) ~vbs:(-.v_n1)
  in
  let vp1 =
    vdd
    -. vgs_of E.Pmos ~w:sizes.w_tail ~l:sizes.l_tail ~ids:(2.0 *. i1)
         ~vds:(vdd -. v_tail) ~vbs:0.0
  in
  let vc3 =
    v_n4
    -. vgs_of E.Pmos ~w:sizes.w_pcasc ~l:sizes.l_cascode ~ids:i2
         ~vds:(v_n4 -. out_q) ~vbs:(-.(vdd -. v_n4))
  in
  let v_n3 =
    vdd -. vgs_of E.Pmos ~w:sizes.w_psrc ~l:sizes.l_psrc ~ids:i2
            ~vds:(vdd -. v_n4) ~vbs:0.0
  in
  (* the netlist: canonical nets, bulk of the input pair in its own well
     tied to the tail (the floating-well capacitance the layout tool
     reports loads the tail net) *)
  let mos name mtype w l ~d ~g ~s ~b =
    El.Mos { dev = mk name mtype w l; d; g; s; b }
  in
  let devices =
    [
      mos "P1" E.Pmos sizes.w_in sizes.l_in ~d:"n1" ~g:"inp" ~s:"tail" ~b:"tail";
      mos "P2" E.Pmos sizes.w_in sizes.l_in ~d:"n2" ~g:"inn" ~s:"tail" ~b:"tail";
      mos "TAIL" E.Pmos sizes.w_tail sizes.l_tail ~d:"tail" ~g:"vp1" ~s:"vdd" ~b:"vdd";
      mos "N5" E.Nmos sizes.w_nsink sizes.l_nsink ~d:"n1" ~g:"vp2" ~s:"0" ~b:"0";
      mos "N6" E.Nmos sizes.w_nsink sizes.l_nsink ~d:"n2" ~g:"vp2" ~s:"0" ~b:"0";
      mos "N1C" E.Nmos sizes.w_ncasc sizes.l_cascode ~d:"n3" ~g:"vc1" ~s:"n1" ~b:"0";
      mos "N2C" E.Nmos sizes.w_ncasc sizes.l_cascode ~d:"out" ~g:"vc1" ~s:"n2" ~b:"0";
      mos "P3" E.Pmos sizes.w_psrc sizes.l_psrc ~d:"n4l" ~g:"n3" ~s:"vdd" ~b:"vdd";
      mos "P4" E.Pmos sizes.w_psrc sizes.l_psrc ~d:"n4r" ~g:"n3" ~s:"vdd" ~b:"vdd";
      mos "P3C" E.Pmos sizes.w_pcasc sizes.l_cascode ~d:"n3" ~g:"vc3" ~s:"n4l" ~b:"vdd";
      mos "P4C" E.Pmos sizes.w_pcasc sizes.l_cascode ~d:"out" ~g:"vc3" ~s:"n4r" ~b:"vdd";
    ]
  in
  let bias_sources = [ ("vp1", vp1); ("vp2", vp2); ("vc1", vc1); ("vc3", vc3) ] in
  let node_caps =
    List.filter
      (fun (_, c) -> c > 0.0)
      (List.map
         (fun net -> (net, Parasitics.node_cap parasitics net))
         [ "n1"; "n2"; "n3"; "n4l"; "n4r"; "out"; "tail"; "inp"; "inn" ])
  in
  let guess =
    [
      ("tail", v_tail); ("n1", v_n1); ("n2", v_n1); ("n3", v_n3);
      ("n4l", v_n4); ("n4r", v_n4); ("out", out_q);
      ("inp", vcm); ("inn", vcm); ("vdd", vdd);
      ("vp1", vp1); ("vp2", vp2); ("vc1", vc1); ("vc3", vc3);
    ]
  in
  let amp =
    {
      Amp.topology = "folded-cascode OTA";
      devices;
      bias_sources;
      node_caps;
      guess;
      quiescent_out = out_q;
      tail_current = 2.0 *. i1;
      supply_current = (2.0 *. i1) +. (2.0 *. i2);
      gm1;
      internal_nets = [ "tail"; "n1"; "n2"; "n3"; "n4l"; "n4r" ];
    }
  in
  {
    amp;
    i1;
    i2;
    veff_in;
    veff_tail;
    veff_nsink;
    veff_ncasc;
    veff_psrc;
    veff_pcasc;
    l_casc = sizes.l_cascode;
    predicted_gbw = fu;
    predicted_pm = pm;
    predicted_gain_db = gain_db;
    iterations = iters;
  }

let size ~proc ~kind ~spec ~parasitics =
  size_with ~proc ~kind ~spec ~parasitics ()

let drain_currents design =
  let i1 = design.i1 and i2 = design.i2 in
  [
    ("P1", i1); ("P2", i1); ("TAIL", 2.0 *. i1);
    ("P3", i2); ("P4", i2); ("P3C", i2); ("P4C", i2);
    ("N1C", i2); ("N2C", i2); ("N5", i1 +. i2); ("N6", i1 +. i2);
  ]

let pp_design fmt d =
  let si = Phys.Units.to_si_string in
  Format.fprintf fmt
    "@[<v>folded cascode design (%d sizing iterations):@,\
     \  I1 = %s  I2 = %s@,\
     \  veff: in=%.2f tail=%.2f nsink=%.2f ncasc=%.2f psrc=%.2f pcasc=%.2f@,\
     \  cascode L = %s@,\
     \  predicted: GBW = %s  PM = %.1f deg  gain = %.1f dB@,%a@]"
    d.iterations (si "A" d.i1) (si "A" d.i2) d.veff_in d.veff_tail d.veff_nsink
    d.veff_ncasc d.veff_psrc d.veff_pcasc
    (si "m" d.l_casc) (si "Hz" d.predicted_gbw) d.predicted_pm
    d.predicted_gain_db Amp.pp_sizes d.amp

let rebias ~proc ~kind ~spec design =
  let nmos = proc.P.electrical.E.nmos and pmos = proc.P.electrical.E.pmos in
  let vdd = spec.Spec.vdd in
  let out_q = Spec.output_quiescent spec in
  let amp = design.amp in
  let size name =
    let d = Amp.find_device amp name in
    (d.Device.Mos.w, d.Device.Mos.l)
  in
  let i1 = design.i1 and i2 = design.i2 in
  let isink = i1 +. i2 in
  let v_n1 = design.veff_nsink +. sat_margin in
  let v_n4 = vdd -. (design.veff_psrc +. sat_margin) in
  let vgs_of mtype ~w ~l ~ids ~vds ~vbs =
    let p = match mtype with E.Nmos -> nmos | E.Pmos -> pmos in
    M.vgs_for_current kind p ~w ~l ~ids ~vds ~vbs
  in
  let w5, l5 = size "N5" in
  let vp2 = vgs_of E.Nmos ~w:w5 ~l:l5 ~ids:isink ~vds:v_n1 ~vbs:0.0 in
  let wnc, lnc = size "N2C" in
  let vc1 =
    v_n1 +. vgs_of E.Nmos ~w:wnc ~l:lnc ~ids:i2 ~vds:(out_q -. v_n1) ~vbs:(-.v_n1)
  in
  let wt, lt = size "TAIL" in
  let vcm = Spec.input_common_mode spec in
  let win, lin = size "P1" in
  let vgs_in =
    vgs_of E.Pmos ~w:win ~l:lin ~ids:i1
      ~vds:(vcm +. pmos.E.vto +. design.veff_in -. v_n1) ~vbs:0.0
  in
  let v_tail = vcm +. vgs_in in
  let vp1 =
    vdd -. vgs_of E.Pmos ~w:wt ~l:lt ~ids:(2.0 *. i1) ~vds:(vdd -. v_tail) ~vbs:0.0
  in
  let wpc, lpc = size "P4C" in
  let vc3 =
    v_n4
    -. vgs_of E.Pmos ~w:wpc ~l:lpc ~ids:i2 ~vds:(v_n4 -. out_q)
         ~vbs:(-.(vdd -. v_n4))
  in
  { amp with
    Amp.bias_sources = [ ("vp1", vp1); ("vp2", vp2); ("vc1", vc1); ("vc3", vc3) ];
    guess =
      List.map
        (fun (n, v) ->
          match n with
          | "vp1" -> (n, vp1)
          | "vp2" -> (n, vp2)
          | "vc1" -> (n, vc1)
          | "vc3" -> (n, vc3)
          | "tail" -> (n, v_tail)
          | _ -> (n, v))
        amp.Amp.guess }
