open Helpers
module Ckt = Netlist.Circuit
module El = Netlist.Element
module M = Device.Model
module P = Technology.Process
module E = Technology.Electrical

let solve = Sim.Dcop.solve ~proc:P.c06 ~kind:M.Level1

(* --- DC --------------------------------------------------------------- *)

let test_divider () =
  let c =
    Ckt.create ~title:"divider"
    |> fun c -> Ckt.add_vsource c ~name:"dd" ~p:"in" ~n:"0" (El.dc_source 3.0)
    |> fun c -> Ckt.add_resistor c ~name:"1" ~p:"in" ~n:"mid" ~r:1e3
    |> fun c -> Ckt.add_resistor c ~name:"2" ~p:"mid" ~n:"0" ~r:2e3
  in
  let op = solve c in
  check_close ~rel:1e-6 "divider voltage" 2.0 (Sim.Dcop.voltage op "mid");
  check_close ~rel:1e-6 "source current" 1e-3 (Sim.Dcop.supply_current op "dd")

let test_current_source () =
  let c =
    Ckt.create ~title:"ir"
    |> fun c -> Ckt.add_isource c ~name:"b" ~p:"0" ~n:"x" (El.dc_source 1e-3)
    |> fun c -> Ckt.add_resistor c ~name:"1" ~p:"x" ~n:"0" ~r:4.7e3
  in
  let op = solve c in
  check_close ~rel:1e-6 "IR drop" 4.7 (Sim.Dcop.voltage op "x")

let test_diode_connected_nmos () =
  let dev = Device.Mos.make ~name:"1" ~mtype:E.Nmos ~w:20e-6 ~l:1e-6 () in
  let c =
    Ckt.create ~title:"diode"
    |> fun c -> Ckt.add_isource c ~name:"b" ~p:"0" ~n:"d" (El.dc_source 50e-6)
    |> fun c -> Ckt.add_mos c ~dev ~d:"d" ~g:"d" ~s:"0" ~b:"0"
  in
  let op = solve c in
  let v = Sim.Dcop.voltage op "d" in
  check_in_range "diode-connected vgs" 0.8 1.4 v;
  let dop = Sim.Dcop.device_op op "1" in
  check_close ~rel:1e-6 "device carries bias current" 50e-6
    dop.Device.Op.eval.M.ids

let test_nmos_mirror () =
  (* 1:2 mirror by width ratio *)
  let m1 = Device.Mos.make ~name:"1" ~mtype:E.Nmos ~w:10e-6 ~l:2e-6 () in
  let m2 = Device.Mos.make ~name:"2" ~mtype:E.Nmos ~w:20e-6 ~l:2e-6 () in
  let c =
    Ckt.create ~title:"mirror"
    |> fun c -> Ckt.add_isource c ~name:"b" ~p:"0" ~n:"ref" (El.dc_source 20e-6)
    |> fun c -> Ckt.add_mos c ~dev:m1 ~d:"ref" ~g:"ref" ~s:"0" ~b:"0"
    |> fun c -> Ckt.add_mos c ~dev:m2 ~d:"out" ~g:"ref" ~s:"0" ~b:"0"
    |> fun c -> Ckt.add_vsource c ~name:"o" ~p:"out" ~n:"0" (El.dc_source 1.5)
  in
  let op = solve c in
  (* the mirror sinks ~40uA (slightly more due to channel-length modulation
     at vds = 1.5 V) *)
  let iout = Sim.Dcop.supply_current op "o" in
  check_in_range "mirrored current" 38e-6 48e-6 iout

let test_pmos_follower () =
  let dev = Device.Mos.make ~name:"p" ~mtype:E.Pmos ~w:40e-6 ~l:1e-6 () in
  let c =
    Ckt.create ~title:"pmos bias"
    |> fun c -> Ckt.add_vsource c ~name:"dd" ~p:"vdd" ~n:"0" (El.dc_source 3.3)
    |> fun c -> Ckt.add_vsource c ~name:"g" ~p:"gate" ~n:"0" (El.dc_source 1.8)
    |> fun c -> Ckt.add_mos c ~dev ~d:"out" ~g:"gate" ~s:"vdd" ~b:"vdd"
    |> fun c -> Ckt.add_resistor c ~name:"l" ~p:"out" ~n:"0" ~r:20e3
  in
  let op = solve c in
  let v = Sim.Dcop.voltage op "out" in
  check_in_range "pmos pulls output up" 0.3 3.2 v;
  let dop = Sim.Dcop.device_op op "p" in
  Alcotest.(check bool) "pmos in forward bias" true
    (dop.Device.Op.eval.M.ids > 1e-6)

(* --- AC --------------------------------------------------------------- *)

let rc_lowpass r cap =
  Ckt.create ~title:"rc"
  |> fun c -> Ckt.add_vsource c ~name:"in" ~p:"in" ~n:"0" (El.ac_source ~dc:0.0 1.0)
  |> fun c -> Ckt.add_resistor c ~name:"1" ~p:"in" ~n:"out" ~r
  |> fun c -> Ckt.add_capacitor c ~name:"1" ~p:"out" ~n:"0" ~c:cap

let test_rc_transfer () =
  let r = 1e3 and cap = 1e-9 in
  let op = solve (rc_lowpass r cap) in
  let net = Sim.Acs.prepare op in
  let fc = 1.0 /. (2.0 *. Float.pi *. r *. cap) in
  let mag = Sim.Measure.magnitude net ~out:"out" fc in
  check_close ~rel:1e-6 "-3dB at fc" (1.0 /. sqrt 2.0) mag;
  let ph = Sim.Measure.phase_deg net ~out:"out" fc in
  check_close ~rel:1e-4 "-45 deg at fc" (-45.0) ph;
  match Sim.Measure.bandwidth_3db net ~out:"out" with
  | None -> Alcotest.fail "no 3dB point"
  | Some f -> check_close ~rel:1e-3 "bandwidth measure" fc f

let test_common_source_gain () =
  let dev = Device.Mos.make ~name:"1" ~mtype:E.Nmos ~w:50e-6 ~l:1e-6 () in
  let rl = 50e3 in
  let c =
    Ckt.create ~title:"cs amp"
    |> fun c -> Ckt.add_vsource c ~name:"dd" ~p:"vdd" ~n:"0" (El.dc_source 3.3)
    |> fun c -> Ckt.add_vsource c ~name:"in" ~p:"g" ~n:"0" (El.ac_source ~dc:1.0 1.0)
    |> fun c -> Ckt.add_resistor c ~name:"l" ~p:"vdd" ~n:"d" ~r:rl
    |> fun c -> Ckt.add_mos c ~dev ~d:"d" ~g:"g" ~s:"0" ~b:"0"
  in
  let op = solve c in
  let dop = Sim.Dcop.device_op op "1" in
  let gm = dop.Device.Op.eval.M.gm and gds = dop.Device.Op.eval.M.gds in
  let expect = gm /. ((1.0 /. rl) +. gds) in
  let net = Sim.Acs.prepare op in
  let gain = Sim.Measure.dc_gain net ~out:"d" in
  check_close ~rel:1e-3 "cs gain = gm*(RL || ro)" expect gain

let test_output_resistance_measure () =
  let c =
    Ckt.create ~title:"rout"
    |> fun c -> Ckt.add_resistor c ~name:"1" ~p:"out" ~n:"0" ~r:12.34e3
  in
  let op = solve c in
  let net = Sim.Acs.prepare op in
  check_close ~rel:1e-6 "rout of plain resistor" 12.34e3
    (Sim.Measure.output_resistance net ~out:"out")

let test_unity_gain_freq () =
  (* single-pole common-source stage: with dc gain >> 1 the unity-gain
     frequency is gm / (2 pi C_total) independent of the load resistor *)
  let r = 30e3 and cap = 10e-12 in
  let dev = Device.Mos.make ~name:"1" ~mtype:E.Nmos ~w:20e-6 ~l:1e-6 () in
  let c =
    Ckt.create ~title:"onepole"
    |> fun c -> Ckt.add_vsource c ~name:"dd" ~p:"vdd" ~n:"0" (El.dc_source 3.3)
    |> fun c -> Ckt.add_vsource c ~name:"in" ~p:"g" ~n:"0" (El.ac_source ~dc:1.0 1.0)
    |> fun c -> Ckt.add_mos c ~dev ~d:"d" ~g:"g" ~s:"0" ~b:"0"
    |> fun c -> Ckt.add_resistor c ~name:"l" ~p:"vdd" ~n:"d" ~r
    |> fun c -> Ckt.add_capacitor c ~name:"l" ~p:"d" ~n:"0" ~c:cap
  in
  let op = solve c in
  let dop = Sim.Dcop.device_op op "1" in
  Alcotest.(check string) "stage biased in saturation" "saturation"
    (M.region_to_string dop.Device.Op.eval.M.region);
  let gm = dop.Device.Op.eval.M.gm in
  let net = Sim.Acs.prepare op in
  Alcotest.(check bool) "dc gain above unity" true
    (Sim.Measure.dc_gain net ~out:"d" > 3.0);
  match Sim.Measure.unity_gain_freq net ~out:"d" with
  | None -> Alcotest.fail "no unity crossing"
  | Some fu ->
    let ctotal = cap +. dop.Device.Op.caps.Device.Caps.cgd
                 +. dop.Device.Op.caps.Device.Caps.cdb in
    let expect = gm /. (2.0 *. Float.pi *. ctotal) in
    check_close ~rel:0.08 "fu ~ gm/2piC" expect fu

(* --- noise ------------------------------------------------------------ *)

let test_resistor_noise () =
  (* output noise of a grounded parallel RC at low frequency equals 4kTR *)
  let r = 100e3 in
  let c =
    Ckt.create ~title:"rnoise"
    |> fun c -> Ckt.add_resistor c ~name:"1" ~p:"out" ~n:"0" ~r
  in
  let op = solve c in
  let net = Sim.Acs.prepare op in
  let psd, contribs = Sim.Noise.output_psd op net ~out:"out" ~freq:1e3 in
  let expect = 4.0 *. Phys.Const.boltzmann *. Phys.Const.room_temperature *. r in
  check_close ~rel:1e-6 "4kTR" expect psd;
  Alcotest.(check int) "one contributor" 1 (List.length contribs)

let test_mos_noise_input_referred () =
  let dev = Device.Mos.make ~name:"1" ~mtype:E.Nmos ~w:100e-6 ~l:1e-6 () in
  let c =
    Ckt.create ~title:"mosnoise"
    |> fun c -> Ckt.add_vsource c ~name:"dd" ~p:"vdd" ~n:"0" (El.dc_source 3.3)
    |> fun c -> Ckt.add_vsource c ~name:"in" ~p:"g" ~n:"0" (El.ac_source ~dc:1.0 1.0)
    |> fun c -> Ckt.add_mos c ~dev ~d:"d" ~g:"g" ~s:"0" ~b:"0"
    |> fun c -> Ckt.add_resistor c ~name:"l" ~p:"vdd" ~n:"d" ~r:5e3
  in
  let op = solve c in
  let net = Sim.Acs.prepare op in
  let freq = 10e6 in
  let gain = Sim.Acs.transfer net ~freq ~out:"d" in
  let svin = Sim.Noise.input_referred_psd op net ~out:"d" ~gain ~freq in
  (* input-referred thermal of the device alone: 8kT/(3gm) *)
  let dop = Sim.Dcop.device_op op "1" in
  let gm = dop.Device.Op.eval.M.gm in
  let dev_only = 8.0 *. Phys.Const.boltzmann *. Phys.Const.room_temperature
                 /. (3.0 *. gm) in
  Alcotest.(check bool) "input noise at least device thermal" true
    (svin >= dev_only *. 0.99);
  Alcotest.(check bool) "within 3x (resistor adds)" true (svin < dev_only *. 3.0)

(* --- transient --------------------------------------------------------- *)

let test_rc_step () =
  let r = 1e3 and cap = 1e-9 in
  let tau = r *. cap in
  let step t = if t <= 0.0 then 0.0 else 1.0 in
  let c =
    Ckt.create ~title:"rc step"
    |> fun c -> Ckt.add_vsource c ~name:"in" ~p:"in" ~n:"0" (El.wave_source step)
    |> fun c -> Ckt.add_resistor c ~name:"1" ~p:"in" ~n:"out" ~r
    |> fun c -> Ckt.add_capacitor c ~name:"1" ~p:"out" ~n:"0" ~c:cap
  in
  let res =
    Sim.Tran.run ~proc:P.c06 ~kind:M.Level1 ~tstop:(5.0 *. tau)
      ~dt:(tau /. 400.0) c
  in
  let v_tau = Sim.Tran.value_at res "out" tau in
  check_close ~rel:0.01 "1 - 1/e at tau" (1.0 -. exp (-1.0)) v_tau;
  let v_end = Sim.Tran.value_at res "out" (5.0 *. tau) in
  check_in_range "settled" 0.99 1.0 v_end

let test_cap_ramp_slope () =
  (* a current step into a capacitor ramps it at dv/dt = I/C; the bleed
     resistor is large enough that the ramp stays linear over the run *)
  let i = 1e-6 and cap = 1e-12 in
  let istep t = if t <= 0.0 then 0.0 else i in
  let c =
    Ckt.create ~title:"ramp"
    |> fun c -> Ckt.add_isource c ~name:"b" ~p:"0" ~n:"x" (El.wave_source istep)
    |> fun c -> Ckt.add_capacitor c ~name:"1" ~p:"x" ~n:"0" ~c:cap
    |> fun c -> Ckt.add_resistor c ~name:"big" ~p:"x" ~n:"0" ~r:1e9
  in
  let res = Sim.Tran.run ~proc:P.c06 ~kind:M.Level1 ~tstop:1e-6 ~dt:1e-9 c in
  let rising, _ = Sim.Tran.max_slope res "x" in
  check_close ~rel:0.05 "slew I/C" (i /. cap) rising

let test_crossing_interpolated () =
  (* the ramp of [test_cap_ramp_slope] at a step so coarse that a grid
     read could miss by 9% of the 10-90% edge: the interpolated time still
     matches the analytic one *)
  let i = 1e-6 and cap = 1e-12 and r = 1e9 in
  let istep t = if t <= 0.0 then 0.0 else i in
  let c =
    Ckt.create ~title:"ramp"
    |> fun c -> Ckt.add_isource c ~name:"b" ~p:"0" ~n:"x" (El.wave_source istep)
    |> fun c -> Ckt.add_capacitor c ~name:"1" ~p:"x" ~n:"0" ~c:cap
    |> fun c -> Ckt.add_resistor c ~name:"big" ~p:"x" ~n:"0" ~r
  in
  let res = Sim.Tran.run ~proc:P.c06 ~kind:M.Level1 ~tstop:1e-6 ~dt:7e-8 c in
  let at level =
    match Sim.Tran.crossing res "x" ~level ~falling:false with
    | Some t -> t
    | None -> Alcotest.failf "no crossing of %g V" level
  in
  let analytic v = -.(r *. cap) *. log (1.0 -. (v /. (i *. r))) in
  check_close ~rel:1e-3 "10-90% time" (analytic 0.9 -. analytic 0.1)
    (at 0.9 -. at 0.1);
  Alcotest.(check bool) "level never reached" true
    (Sim.Tran.crossing res "x" ~level:2.0 ~falling:false = None);
  Alcotest.(check bool) "nothing after the run" true
    (Sim.Tran.crossing ~after:2e-6 res "x" ~level:0.5 ~falling:false = None)

let test_settling_time () =
  let r = 1e3 and cap = 1e-9 in
  let step t = if t <= 0.0 then 0.0 else 1.0 in
  let c =
    Ckt.create ~title:"rc settle"
    |> fun c -> Ckt.add_vsource c ~name:"in" ~p:"in" ~n:"0" (El.wave_source step)
    |> fun c -> Ckt.add_resistor c ~name:"1" ~p:"in" ~n:"out" ~r
    |> fun c -> Ckt.add_capacitor c ~name:"1" ~p:"out" ~n:"0" ~c:cap
  in
  let res = Sim.Tran.run ~proc:P.c06 ~kind:M.Level1 ~tstop:10e-6 ~dt:5e-9 c in
  match Sim.Tran.settling_time res "out" ~target:1.0 ~tol:0.01 with
  | None -> Alcotest.fail "did not settle"
  | Some t ->
    (* 1% settling of a first-order system: ~4.6 tau *)
    check_in_range "settling near 4.6 tau" (3.5e-6) (5.5e-6) t

let prop_divider_matches_analytic =
  QCheck.Test.make ~name:"random resistive ladders match analytic solution"
    ~count:60
    QCheck.(pair (float_range 100.0 1e6) (float_range 100.0 1e6))
    (fun (r1, r2) ->
      let c =
        Ckt.create ~title:"prop divider"
        |> fun c -> Ckt.add_vsource c ~name:"s" ~p:"a" ~n:"0" (El.dc_source 1.0)
        |> fun c -> Ckt.add_resistor c ~name:"1" ~p:"a" ~n:"b" ~r:r1
        |> fun c -> Ckt.add_resistor c ~name:"2" ~p:"b" ~n:"0" ~r:r2
      in
      let op = solve c in
      let v = Sim.Dcop.voltage op "b" in
      Float.abs (v -. (r2 /. (r1 +. r2))) < 1e-6)

(* --- edge cases ---------------------------------------------------------- *)

let test_floating_node_gmin () =
  (* a node connected only through a capacitor floats at DC: gmin keeps the
     system regular and parks it at ground *)
  let c =
    Ckt.create ~title:"floating"
    |> fun c -> Ckt.add_vsource c ~name:"s" ~p:"a" ~n:"0" (El.dc_source 1.0)
    |> fun c -> Ckt.add_capacitor c ~name:"1" ~p:"a" ~n:"f" ~c:1e-12
    |> fun c -> Ckt.add_capacitor c ~name:"2" ~p:"f" ~n:"0" ~c:1e-12
  in
  let op = solve c in
  check_in_range "floating node parked" (-1e-3) 1.0 (Sim.Dcop.voltage op "f")

let test_source_only_circuit () =
  let c =
    Ckt.create ~title:"src"
    |> fun c -> Ckt.add_vsource c ~name:"s" ~p:"a" ~n:"0" (El.dc_source 2.5)
  in
  let op = solve c in
  check_close ~rel:1e-9 "source node" 2.5 (Sim.Dcop.voltage op "a");
  check_close ~abs_tol:1e-9 "no current" 0.0 (Sim.Dcop.supply_current op "s")

let test_two_stage_rc_transfer () =
  (* two cascaded RC sections with analytic transfer:
     H(s) = 1 / (1 + s(R1C1 + R2C2 + R1C2) + s^2 R1C1R2C2) *)
  let r1 = 1e3 and c1 = 1e-9 and r2 = 10e3 and c2 = 0.1e-9 in
  let c =
    Ckt.create ~title:"rc2"
    |> fun c -> Ckt.add_vsource c ~name:"in" ~p:"in" ~n:"0" (El.ac_source 1.0)
    |> fun c -> Ckt.add_resistor c ~name:"1" ~p:"in" ~n:"m" ~r:r1
    |> fun c -> Ckt.add_capacitor c ~name:"1" ~p:"m" ~n:"0" ~c:c1
    |> fun c -> Ckt.add_resistor c ~name:"2" ~p:"m" ~n:"out" ~r:r2
    |> fun c -> Ckt.add_capacitor c ~name:"2" ~p:"out" ~n:"0" ~c:c2
  in
  let op = solve c in
  let net = Sim.Acs.prepare op in
  let f = 300e3 in
  let w = 2.0 *. Float.pi *. f in
  let a1 = (r1 *. c1) +. (r2 *. c2) +. (r1 *. c2) in
  let a2 = r1 *. c1 *. r2 *. c2 in
  let expect =
    Complex.div Complex.one
      { Complex.re = 1.0 -. (w *. w *. a2); im = w *. a1 }
  in
  let h = Sim.Acs.transfer net ~freq:f ~out:"out" in
  check_close ~rel:1e-6 "two-pole magnitude" (Complex.norm expect) (Complex.norm h);
  check_close ~rel:1e-6 "two-pole phase" (Complex.arg expect) (Complex.arg h)

let test_dc_without_guess_converges () =
  (* the folded cascode biases even from an all-zero initial guess via the
     continuation strategies *)
  let d =
    Comdiac.Folded_cascode.size ~proc:P.c06 ~kind:M.Bsim_lite
      ~spec:Comdiac.Spec.paper_ota ~parasitics:Comdiac.Parasitics.none
  in
  let spec = Comdiac.Spec.paper_ota in
  let vcm = Comdiac.Spec.input_common_mode spec in
  let c = Ckt.create ~title:"cold start" in
  let c = Comdiac.Amp.add_to d.Comdiac.Folded_cascode.amp c in
  let c = Ckt.add_vsource c ~name:"dd" ~p:"vdd" ~n:"0" (El.dc_source 3.3) in
  let c = Ckt.add_vsource c ~name:"a" ~p:"inp" ~n:"0" (El.dc_source vcm) in
  let c = Ckt.add_vsource c ~name:"b" ~p:"inn" ~n:"0" (El.dc_source vcm) in
  let op = Sim.Dcop.solve ~proc:P.c06 ~kind:M.Bsim_lite c in
  check_in_range "output inside the rails" 0.0 3.3 (Sim.Dcop.voltage op "out")

(* --- backend identity --------------------------------------------------
   The unboxed workspace kernels (the default) and the boxed functor
   reference must produce bit-for-bit identical results on real
   circuits. *)

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let cascode_testbench () =
  let d =
    Comdiac.Folded_cascode.size ~proc:P.c06 ~kind:M.Bsim_lite
      ~spec:Comdiac.Spec.paper_ota ~parasitics:Comdiac.Parasitics.none
  in
  let vcm = Comdiac.Spec.input_common_mode Comdiac.Spec.paper_ota in
  let c = Ckt.create ~title:"backend identity" in
  let c = Comdiac.Amp.add_to d.Comdiac.Folded_cascode.amp c in
  let c = Ckt.add_vsource c ~name:"dd" ~p:"vdd" ~n:"0" (El.dc_source 3.3) in
  let c = Ckt.add_vsource c ~name:"a" ~p:"inp" ~n:"0" (El.dc_source vcm) in
  let c = Ckt.add_vsource c ~name:"b" ~p:"inn" ~n:"0" (El.dc_source vcm) in
  c

let test_backend_dc_bit_identical () =
  let c = cascode_testbench () in
  let k =
    Sim.Dcop.solve ~backend:Sim.Stamps.Kernel ~proc:P.c06 ~kind:M.Bsim_lite c
  in
  let r =
    Sim.Dcop.solve ~backend:Sim.Stamps.Reference ~proc:P.c06 ~kind:M.Bsim_lite c
  in
  Alcotest.(check int) "same Newton iteration count"
    (Sim.Dcop.iterations r) (Sim.Dcop.iterations k);
  Array.iter
    (fun name ->
      Alcotest.(check bool) ("V(" ^ name ^ ") bit-identical") true
        (bits_eq (Sim.Dcop.voltage k name) (Sim.Dcop.voltage r name)))
    (Sim.Indexing.node_names (Sim.Dcop.indexing k))

let test_backend_ac_bit_identical () =
  let dev = Device.Mos.make ~name:"1" ~mtype:E.Nmos ~w:50e-6 ~l:1e-6 () in
  let c =
    Ckt.create ~title:"ac identity"
    |> fun c -> Ckt.add_vsource c ~name:"dd" ~p:"vdd" ~n:"0" (El.dc_source 3.3)
    |> fun c -> Ckt.add_vsource c ~name:"in" ~p:"g" ~n:"0" (El.ac_source ~dc:1.0 1.0)
    |> fun c -> Ckt.add_resistor c ~name:"l" ~p:"vdd" ~n:"d" ~r:50e3
    |> fun c -> Ckt.add_capacitor c ~name:"c" ~p:"d" ~n:"0" ~c:1e-12
    |> fun c -> Ckt.add_mos c ~dev ~d:"d" ~g:"g" ~s:"0" ~b:"0"
  in
  let op = solve c in
  let net = Sim.Acs.prepare op in
  List.iter
    (fun freq ->
      let hk = Sim.Acs.transfer ~backend:Sim.Stamps.Kernel net ~freq ~out:"d" in
      let hr =
        Sim.Acs.transfer ~backend:Sim.Stamps.Reference net ~freq ~out:"d"
      in
      Alcotest.(check bool)
        (Printf.sprintf "H(%.0e) bit-identical" freq)
        true
        (bits_eq hk.Complex.re hr.Complex.re
         && bits_eq hk.Complex.im hr.Complex.im))
    [ 1.0; 1e3; 1e6; 1e9 ];
  (* noise inner loop: the in-workspace |V(out)|^2 equals the reference
     backend's, and the phasor-vector formulation of the same quantity *)
  let fk = Sim.Acs.factor ~backend:Sim.Stamps.Kernel net ~freq:1e6 in
  let fr = Sim.Acs.factor ~backend:Sim.Stamps.Reference net ~freq:1e6 in
  let gk = Sim.Acs.injection_gain2 fk ~p:"d" ~n:"0" ~out:"d" in
  let gr = Sim.Acs.injection_gain2 fr ~p:"d" ~n:"0" ~out:"d" in
  Alcotest.(check bool) "injection gain bit-identical" true (bits_eq gk gr);
  let via_vector =
    Complex.norm2 (Sim.Acs.voltage net (Sim.Acs.solve_injection fk ~p:"d" ~n:"0") "d")
  in
  Alcotest.(check bool) "gain2 equals norm2 of phasor" true
    (bits_eq gk via_vector)

let test_backend_ac_interleaved_factors () =
  (* two live kernel factorisations share the domain's workspace: each
     solve transparently re-factors when the other clobbered it, and the
     results stay bit-identical to the reference backend *)
  let r = 1e3 and cap = 1e-9 in
  let op = solve (rc_lowpass r cap) in
  let net = Sim.Acs.prepare op in
  let f1 = Sim.Acs.factor ~backend:Sim.Stamps.Kernel net ~freq:1e4 in
  let f2 = Sim.Acs.factor ~backend:Sim.Stamps.Kernel net ~freq:1e7 in
  let h1 = Sim.Acs.voltage net (Sim.Acs.solve_sources f1) "out" in
  let h2 = Sim.Acs.voltage net (Sim.Acs.solve_sources f2) "out" in
  let h1r = Sim.Acs.transfer ~backend:Sim.Stamps.Reference net ~freq:1e4 ~out:"out" in
  let h2r = Sim.Acs.transfer ~backend:Sim.Stamps.Reference net ~freq:1e7 ~out:"out" in
  Alcotest.(check bool) "stale handle refactors identically" true
    (bits_eq h1.Complex.re h1r.Complex.re && bits_eq h1.Complex.im h1r.Complex.im);
  Alcotest.(check bool) "second handle intact" true
    (bits_eq h2.Complex.re h2r.Complex.re && bits_eq h2.Complex.im h2r.Complex.im)

let test_backend_tran_bit_identical () =
  let r = 1e3 and cap = 1e-9 in
  let tau = r *. cap in
  let step t = if t <= 0.0 then 0.0 else 1.0 in
  let c =
    Ckt.create ~title:"tran identity"
    |> fun c -> Ckt.add_vsource c ~name:"in" ~p:"in" ~n:"0" (El.wave_source step)
    |> fun c -> Ckt.add_resistor c ~name:"1" ~p:"in" ~n:"out" ~r
    |> fun c -> Ckt.add_capacitor c ~name:"1" ~p:"out" ~n:"0" ~c:cap
  in
  let run backend =
    Sim.Tran.run ~backend ~proc:P.c06 ~kind:M.Level1 ~tstop:(5.0 *. tau)
      ~dt:(tau /. 50.0) c
  in
  let wk = Sim.Tran.waveform (run Sim.Stamps.Kernel) "out" in
  let wr = Sim.Tran.waveform (run Sim.Stamps.Reference) "out" in
  Alcotest.(check bool) "every time point bit-identical" true
    (Array.for_all2 bits_eq wk wr)

(* --- kernel vs reference over random connected netlists ----------------
   The same bit-identity as above, checked over seeded random circuits
   rather than the pinned ones: every stamp kind, zero-diagonal source
   rows, and netlists that fail to converge (both backends must then
   fail alike). *)

let try_dc backend c =
  match Sim.Dcop.solve ~backend ~proc:P.c06 ~kind:M.Level1 c with
  | op -> Some op
  | exception Phys.Numerics.No_convergence _ -> None

let prop_kernel_dc_bit_identical =
  QCheck.Test.make ~count:60
    ~name:"kernel DC bit-identical to reference on random netlists"
    QCheck.(pair (int_range 2 30) (int_range 0 100000))
    (fun (nodes, seed) ->
      let c, _ = Gen_netlist.make ~nodes ~seed in
      match (try_dc Sim.Stamps.Kernel c, try_dc Sim.Stamps.Reference c) with
      | None, None -> true
      | Some k, Some r ->
        Sim.Dcop.iterations k = Sim.Dcop.iterations r
        && Array.for_all
             (fun nd ->
               bits_eq (Sim.Dcop.voltage k nd) (Sim.Dcop.voltage r nd))
             (Sim.Indexing.node_names (Sim.Dcop.indexing k))
      | _ -> false)

let ac_freqs = [ 1.0; 1e4; 1e7; 1e9 ]

let prop_kernel_ac_bit_identical =
  QCheck.Test.make ~count:40
    ~name:"kernel AC bit-identical to reference on random netlists"
    QCheck.(pair (int_range 2 25) (int_range 0 100000))
    (fun (nodes, seed) ->
      let c, out = Gen_netlist.make ~nodes ~seed in
      match try_dc Sim.Stamps.Kernel c with
      | None -> true
      | Some op ->
        let net = Sim.Acs.prepare op in
        List.for_all
          (fun freq ->
            let hk =
              Sim.Acs.transfer ~backend:Sim.Stamps.Kernel net ~freq ~out
            in
            let hr =
              Sim.Acs.transfer ~backend:Sim.Stamps.Reference net ~freq ~out
            in
            bits_eq hk.Complex.re hr.Complex.re
            && bits_eq hk.Complex.im hr.Complex.im)
          ac_freqs)

let try_tran backend c =
  match
    Sim.Tran.run ~backend ~proc:P.c06 ~kind:M.Level1 ~tstop:2e-7 ~dt:1e-8 c
  with
  | r -> Some r
  | exception Phys.Numerics.No_convergence _ -> None

let prop_kernel_tran_bit_identical =
  QCheck.Test.make ~count:20
    ~name:"kernel transient bit-identical to reference on random netlists"
    QCheck.(pair (int_range 2 15) (int_range 0 100000))
    (fun (nodes, seed) ->
      let c, out = Gen_netlist.make ~nodes ~seed in
      match (try_tran Sim.Stamps.Kernel c, try_tran Sim.Stamps.Reference c) with
      | None, None -> true
      | Some k, Some r ->
        Array.for_all2 bits_eq (Sim.Tran.waveform k out)
          (Sim.Tran.waveform r out)
      | _ -> false)

let edge_cases =
  [
    case "floating node handled by gmin" test_floating_node_gmin;
    case "source-only circuit" test_source_only_circuit;
    case "cascaded RC matches analytic" test_two_stage_rc_transfer;
    case "cold-start DC convergence" test_dc_without_guess_converges;
    case "DC backends bit-identical" test_backend_dc_bit_identical;
    case "AC backends bit-identical" test_backend_ac_bit_identical;
    case "interleaved AC factorisations" test_backend_ac_interleaved_factors;
    case "transient backends bit-identical" test_backend_tran_bit_identical;
  ]


let suite =
  ( "sim",
    [
      case "resistive divider" test_divider;
      case "current source into resistor" test_current_source;
      case "diode-connected nmos" test_diode_connected_nmos;
      case "nmos current mirror" test_nmos_mirror;
      case "pmos device biasing" test_pmos_follower;
      case "RC transfer function" test_rc_transfer;
      case "common-source gain" test_common_source_gain;
      case "output resistance" test_output_resistance_measure;
      case "unity gain frequency" test_unity_gain_freq;
      case "resistor thermal noise" test_resistor_noise;
      case "mos input-referred noise" test_mos_noise_input_referred;
      case "RC step response" test_rc_step;
      case "capacitor ramp slope" test_cap_ramp_slope;
      case "interpolated ramp crossings" test_crossing_interpolated;
      case "settling time" test_settling_time;
    ]
    @ edge_cases
    @ qcheck_cases
        [
          prop_divider_matches_analytic;
          prop_kernel_dc_bit_identical;
          prop_kernel_ac_bit_identical;
          prop_kernel_tran_bit_identical;
        ] )
