module El = Netlist.Element
module E = Technology.Electrical
module P = Technology.Process
module M = Device.Model

type design = {
  amp : Amp.t;
  i1 : float;
  i6 : float;
  cc : float;
  rz : float;
  predicted_gbw : float;
}

let device_names = [ "M1"; "M2"; "M3"; "M4"; "M5"; "M6"; "M7" ]

let zero_geom w =
  { Device.Folding.ad = 0.0; as_ = 0.0; pd = 0.0; ps = 0.0;
    finger_w = w; drain_strips = 1; source_strips = 1 }

let size_once ~proc ~kind ~spec ~parasitics ~gm1_scale ~gm6_scale =
  (match Spec.validate spec with
   | Ok () -> ()
   | Error msg -> failwith ("Two_stage.size: " ^ msg));
  let nmos = proc.P.electrical.E.nmos and pmos = proc.P.electrical.E.pmos in
  let vdd = spec.Spec.vdd in
  let vcm = Spec.input_common_mode spec in
  let vcm = Float.max vcm (nmos.E.vto +. 0.45) in
  let out_q = Spec.output_quiescent spec in
  let lmin = P.lmin proc in
  let l = 2.0 *. lmin in
  let veff1 = 0.20 and veff_load = 0.30 and veff_tail = 0.25 in
  let mk name mtype w l =
    let dev = Device.Mos.make ~name ~mtype ~w ~l () in
    let dev = Parasitics.apply_to_device parasitics dev in
    match parasitics.Parasitics.diffusion with
    | Parasitics.No_diffusion ->
      { dev with Device.Mos.diffusion = Some (zero_geom w) }
    | Parasitics.Assume_single_fold | Parasitics.Layout_exact -> dev
  in
  (* compensation: Cc from the load, second-stage gm from the required
     output pole, first-stage gm from GBW over Cc *)
  let cc = 0.5 *. spec.Spec.cload in
  let fu = spec.Spec.gbw in
  let pm_rad = (spec.Spec.phase_margin +. 4.0) *. Float.pi /. 180.0 in
  let p2_needed = fu /. tan ((Float.pi /. 2.0) -. pm_rad) in
  let gm6 = gm6_scale *. 2.0 *. Float.pi *. p2_needed *. spec.Spec.cload in
  let gm1 = gm1_scale *. 2.0 *. Float.pi *. fu *. cc in
  (* first stage *)
  let v_tail = vcm -. (nmos.E.vto +. veff1) in
  let w_unit = 1e-6 in
  let eval1 =
    M.evaluate kind nmos ~w:w_unit ~l
      { M.vgs = nmos.E.vto +. veff1; vds = 1.0; vbs = -.v_tail }
  in
  let w1 = gm1 /. eval1.M.gm *. w_unit in
  let i1 = eval1.M.ids *. (w1 /. w_unit) in
  let vgs_load = pmos.E.vto +. veff_load in
  let w3 =
    M.w_for_current kind pmos ~l ~ids:i1
      { M.vgs = vgs_load; vds = vgs_load; vbs = 0.0 }
  in
  let w5 =
    M.w_for_current kind nmos ~l ~ids:(2.0 *. i1)
      { M.vgs = nmos.E.vto +. veff_tail; vds = v_tail; vbs = 0.0 }
  in
  let vb =
    M.vgs_for_current kind nmos ~w:w5 ~l ~ids:(2.0 *. i1) ~vds:v_tail ~vbs:0.0
  in
  (* second stage: M6's gate sits at the first-stage output, which rests at
     vdd - vgs_load, so M6 sees the mirror's gate drive; its width sets both
     gm6 and i6 *)
  let eval6 =
    M.evaluate kind pmos ~w:w_unit ~l
      { M.vgs = vgs_load; vds = vdd -. out_q; vbs = 0.0 }
  in
  let w6 = gm6 /. eval6.M.gm *. w_unit in
  let i6 = eval6.M.ids *. (w6 /. w_unit) in
  let w7 =
    M.w_for_current kind nmos ~l ~ids:i6 { M.vgs = vb; vds = out_q; vbs = 0.0 }
  in
  let rz = 1.0 /. gm6 in
  let o1_q = vdd -. vgs_load in
  let mos name mtype w ~d ~g ~s ~b = El.Mos { dev = mk name mtype w l; d; g; s; b } in
  let devices =
    [
      (* the mirror side (M1) is the inverting path through the two
         stages, so the non-inverting input inp drives M2 *)
      mos "M1" E.Nmos w1 ~d:"x1" ~g:"inn" ~s:"tail" ~b:"0";
      mos "M2" E.Nmos w1 ~d:"o1" ~g:"inp" ~s:"tail" ~b:"0";
      mos "M3" E.Pmos w3 ~d:"x1" ~g:"x1" ~s:"vdd" ~b:"vdd";
      mos "M4" E.Pmos w3 ~d:"o1" ~g:"x1" ~s:"vdd" ~b:"vdd";
      mos "M5" E.Nmos w5 ~d:"tail" ~g:"vb" ~s:"0" ~b:"0";
      mos "M6" E.Pmos w6 ~d:"out" ~g:"o1" ~s:"vdd" ~b:"vdd";
      mos "M7" E.Nmos w7 ~d:"out" ~g:"vb" ~s:"0" ~b:"0";
      El.Resistor { name = "z"; p = "out"; n = "z"; r = rz };
      El.Capacitor { name = "c"; p = "z"; n = "o1"; c = cc };
    ]
  in
  let amp =
    {
      Amp.topology = "two-stage Miller OTA";
      devices;
      bias_sources = [ ("vb", vb) ];
      node_caps = [];
      guess =
        [
          ("tail", v_tail); ("x1", o1_q); ("o1", o1_q); ("z", out_q);
          ("out", out_q); ("inp", vcm); ("inn", vcm); ("vdd", vdd); ("vb", vb);
        ];
      quiescent_out = out_q;
      tail_current = Float.min (2.0 *. i1 *. spec.Spec.cload /. cc) i6;
      supply_current = (2.0 *. i1) +. i6;
      gm1;
      internal_nets = [ "tail"; "x1"; "o1"; "z" ];
    }
  in
  { amp; i1; i6; cc; rz; predicted_gbw = fu }

let pp_design fmt d =
  let si = Phys.Units.to_si_string in
  Format.fprintf fmt
    "@[<v>two-stage Miller design:@,\
     \  I1 = %s  I6 = %s  Cc = %s  Rz = %s@,%a@]"
    (si "A" d.i1) (si "A" d.i6) (si "F" d.cc) (si "ohm" d.rz)
    Amp.pp_sizes d.amp

(* The closed-form plan underestimates the capacitive load of the second
   stage (M6's gate dominates the first-stage output), so the plan is
   calibrated against the verification interface: the GBW shortfall scales
   gm1, the phase-margin shortfall scales gm6. *)
let size ~proc ~kind ~spec ~parasitics =
  Obs.Trace.with_span ~cat:"comdiac" "comdiac.size.two_stage" @@ fun () ->
  let target_fu = spec.Spec.gbw and target_pm = spec.Spec.phase_margin in
  let rec go gm1_scale gm6_scale passes =
    if (Obs.Config.enabled ()) then Obs.Metrics.incr "comdiac.two_stage.passes";
    let d = size_once ~proc ~kind ~spec ~parasitics ~gm1_scale ~gm6_scale in
    if passes >= 6 then d
    else begin
      let tb = Testbench.make ~proc ~kind ~spec d.amp in
      match Testbench.gbw tb with
      | Some fu ->
        let pm = Testbench.phase_margin_at tb fu in
        let fu_ok = Float.abs (fu -. target_fu) <= 0.02 *. target_fu in
        let pm_ok = pm >= target_pm -. 0.5 in
        if fu_ok && pm_ok then d
        else
          let gm1_scale' = gm1_scale *. target_fu /. fu in
          let gm6_scale' =
            if pm_ok then gm6_scale
            else Float.min 4.0 (gm6_scale *. (1.0 +. ((target_pm -. pm) /. 40.0)))
          in
          go gm1_scale' gm6_scale' (passes + 1)
      | None -> d
    end
  in
  go 1.0 1.0 1
