(* The paper's stated future work: "synthesis of larger systems as
   switched capacitor filters ... using the same methodology."  This
   example takes the first step: a parasitic-insensitive switched-
   capacitor integrator built from the synthesized OTA and transistor
   switches, clocked at 5 MHz and simulated in the time domain.

   The switch phasing (input sampled on phi1, input side thrown to the
   reference on phi2) realises the NON-inverting parasitic-insensitive
   integrator: the output ramps by +Vin * Cs/Ci per clock period.  The
   small excess over the ideal step is residual switch charge
   injection.

     dune exec examples/sc_integrator.exe *)

module El = Netlist.Element
module Ckt = Netlist.Circuit
module E = Technology.Electrical

let () =
  let proc = Technology.Process.c06 in
  let kind = Device.Model.Bsim_lite in
  let spec = Comdiac.Spec.paper_ota in
  let design =
    Comdiac.Folded_cascode.size ~proc ~kind ~spec
      ~parasitics:Comdiac.Parasitics.single_fold
  in
  let amp = design.Comdiac.Folded_cascode.amp in
  let fclk = 5e6 in
  let t_clk = 1.0 /. fclk in
  let cs = 1e-12 and ci = 4e-12 in
  let vmid = Comdiac.Spec.output_quiescent spec in
  let vin_step = 0.1 (* volts above the mid rail *) in
  (* two-phase non-overlapping clocks as gate waveforms *)
  let vdd = spec.Comdiac.Spec.vdd in
  let phase offset t =
    let u = Float.rem (t /. t_clk +. offset) 1.0 in
    let u = if u < 0.0 then u +. 1.0 else u in
    if u < 0.42 then vdd else 0.0
  in
  let phi1 = phase 0.0 and phi2 = phase 0.5 in
  let switch name ~gate ~a ~b c =
    (* minimum-ish switches: channel charge injection scales with W L Cox
       and must stay well below the signal charge Cs * Vin *)
    let dev = Device.Mos.make ~name ~mtype:E.Nmos ~w:1.8e-6 ~l:0.6e-6 () in
    Ckt.add_mos c ~dev ~d:a ~g:gate ~s:b ~b:"0"
  in
  let c = Ckt.create ~title:"switched-capacitor integrator" in
  let c = Comdiac.Amp.add_to amp c in
  let c = Ckt.add_vsource c ~name:"dd" ~p:"vdd" ~n:El.ground (El.dc_source vdd) in
  let c = Ckt.add_vsource c ~name:"p1" ~p:"phi1" ~n:El.ground (El.wave_source ~dc:vdd phi1) in
  let c = Ckt.add_vsource c ~name:"p2" ~p:"phi2" ~n:El.ground (El.wave_source ~dc:0.0 phi2) in
  (* reference rail and input: start integrating a positive step at t=0 *)
  let c = Ckt.add_vsource c ~name:"ref" ~p:"vref" ~n:El.ground (El.dc_source vmid) in
  let c =
    Ckt.add_vsource c ~name:"in" ~p:"vin" ~n:El.ground
      (El.wave_source ~dc:vmid (fun t -> if t <= 0.0 then vmid else vmid +. vin_step))
  in
  (* sampling cap Cs switched between (vin, vref) and (vref, summing node) *)
  let c = switch "S1" ~gate:"phi1" ~a:"vin" ~b:"cst" c in
  let c = switch "S2" ~gate:"phi2" ~a:"cst" ~b:"vref" c in
  let c = Ckt.add_capacitor c ~name:"s" ~p:"cst" ~n:"csb" ~c:cs in
  let c = switch "S3" ~gate:"phi1" ~a:"csb" ~b:"vref" c in
  let c = switch "S4" ~gate:"phi2" ~a:"csb" ~b:"inn" c in
  (* integration cap around the amp; inp held at the reference.  A large
     bleed resistor across Ci defines the DC operating point (a real SC
     circuit would use a reset phase); its droop time constant is far
     longer than the simulated window *)
  let c = Ckt.add_capacitor c ~name:"i" ~p:"inn" ~n:"out" ~c:ci in
  let c = Ckt.add_resistor c ~name:"bleed" ~p:"inn" ~n:"out" ~r:50e6 in
  let c = Ckt.add_vsource c ~name:"cm" ~p:"inp" ~n:El.ground (El.dc_source vmid) in
  let guess =
    Comdiac.Amp.guess_fn amp
      ~extra:[ ("vdd", vdd); ("vin", vmid); ("vref", vmid); ("cst", vmid);
               ("csb", vmid); ("inp", vmid); ("inn", vmid); ("out", vmid);
               ("phi1", vdd); ("phi2", 0.0) ]
  in
  let n_cycles = 12 in
  let tstop = float_of_int n_cycles *. t_clk in
  Format.printf "SC integrator: Cs/Ci = %.2f, fclk = %s, Vin step = %+.0f mV@."
    (cs /. ci)
    (Phys.Units.to_si_string "Hz" fclk)
    (vin_step *. 1e3);
  (* [dt] is the largest step, a third of the non-overlap gap between the
     two clock phases, so no step can skip a clock edge; the error
     control shortens it where the waveforms bend and steps across each
     edge.  The fixed backward-Euler step of t_clk / 160 this
     replaced printed 29.47 mV per cycle; this prints 29.45 mV, and a
     fixed step of t_clk / 1600 gives 29.48 mV. *)
  let res = Sim.Tran.run ~proc ~kind ~tstop ~dt:(t_clk /. 40.0) ~guess c in
  Format.printf "%8s %10s@." "cycle" "V(out)";
  let v0 = Sim.Tran.value_at res "out" 0.0 in
  for k = 0 to n_cycles - 1 do
    let t = (float_of_int k +. 0.95) *. t_clk in
    Format.printf "%8d %10.4f@." k (Sim.Tran.value_at res "out" t)
  done;
  let v_end = Sim.Tran.value_at res "out" ((float_of_int n_cycles -. 0.05) *. t_clk) in
  let per_cycle = (v_end -. v0) /. float_of_int (n_cycles - 1) in
  let ideal = vin_step *. cs /. ci in
  Format.printf
    "@.measured step per cycle %.2f mV (ideal +Vin Cs/Ci = %.2f mV)@."
    (per_cycle *. 1e3) (ideal *. 1e3)
