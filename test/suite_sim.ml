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
  let svin = Sim.Noise.input_referred_psd op net ~out:"d" ~freq in
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

(* --- AC reduction vs the LU oracle -----------------------------------
   [Sim.Acs] solves each frequency on one Hessenberg reduction of the
   bench; [Ac_oracle] factors Y(jw) per point.  They must agree within
   1e-9 relative. *)

let crel (a : Complex.t) (b : Complex.t) =
  Complex.norm (Complex.sub a b) /. Float.max 1e-300 (Complex.norm b)

let rel a b = Float.abs (a -. b) /. Float.max 1e-300 (Float.abs b)

let test_ac_matches_oracle () =
  let dev = Device.Mos.make ~name:"1" ~mtype:E.Nmos ~w:50e-6 ~l:1e-6 () in
  let c =
    Ckt.create ~title:"ac oracle"
    |> fun c -> Ckt.add_vsource c ~name:"dd" ~p:"vdd" ~n:"0" (El.dc_source 3.3)
    |> fun c -> Ckt.add_vsource c ~name:"in" ~p:"g" ~n:"0" (El.ac_source ~dc:1.0 1.0)
    |> fun c -> Ckt.add_resistor c ~name:"l" ~p:"vdd" ~n:"d" ~r:50e3
    |> fun c -> Ckt.add_capacitor c ~name:"c" ~p:"d" ~n:"0" ~c:1e-12
    |> fun c -> Ckt.add_mos c ~dev ~d:"d" ~g:"g" ~s:"0" ~b:"0"
  in
  let op = solve c in
  let net = Sim.Acs.prepare op and oracle = Ac_oracle.prepare op in
  List.iter
    (fun freq ->
      let within what a b =
        Alcotest.(check bool)
          (Printf.sprintf "%s at %.0e Hz: rel %.2e" what freq (rel a b))
          true (rel a b < 1e-9)
      in
      let h = Sim.Acs.transfer net ~freq ~out:"d" in
      let ho = Ac_oracle.transfer oracle ~freq ~out:"d" in
      Alcotest.(check bool)
        (Printf.sprintf "transfer at %.0e Hz: rel %.2e" freq (crel h ho))
        true (crel h ho < 1e-9);
      within "output impedance"
        (Complex.norm (Sim.Acs.output_impedance net ~freq ~out:"d"))
        (Complex.norm (Ac_oracle.output_impedance oracle ~freq ~out:"d"));
      within "output noise PSD"
        (fst (Sim.Noise.output_psd op net ~out:"d" ~freq))
        (Ac_oracle.output_psd op oracle ~out:"d" ~freq);
      within "input-referred noise PSD"
        (Sim.Noise.input_referred_psd op net ~out:"d" ~freq)
        (Ac_oracle.input_referred_psd op oracle ~out:"d" ~freq))
    [ 1.0; 1e3; 1e6; 1e9; 1e11 ]

(* A capacitive divider leaves its middle node without a DC path: only
   the 1e-15 S AC gmin ties it to ground, so G is as ill-conditioned as
   the analysis allows.  The reduction must agree with the oracle within
   1e-6 or fail typed. *)
let test_ac_gmin_floating_node () =
  let c =
    Ckt.create ~title:"capacitive divider"
    |> fun c -> Ckt.add_vsource c ~name:"in" ~p:"in" ~n:"0" (El.ac_source ~dc:1.0 1.0)
    |> fun c -> Ckt.add_resistor c ~name:"s" ~p:"in" ~n:"a" ~r:1e3
    |> fun c -> Ckt.add_capacitor c ~name:"a" ~p:"a" ~n:"0" ~c:1e-12
    |> fun c -> Ckt.add_capacitor c ~name:"1" ~p:"a" ~n:"f" ~c:1e-12
    |> fun c -> Ckt.add_capacitor c ~name:"2" ~p:"f" ~n:"0" ~c:3e-12
  in
  let op = solve c in
  let net = Sim.Acs.prepare op and oracle = Ac_oracle.prepare op in
  List.iter
    (fun freq ->
      List.iter
        (fun out ->
          match Sim.Acs.transfer_result net ~freq ~out with
          | Error (Sim.Sim_error.Singular_matrix _) -> ()
          | Error e -> Alcotest.failf "wrong error: %s" (Sim.Sim_error.message e)
          | Ok h ->
            let ho = Ac_oracle.transfer oracle ~freq ~out in
            Alcotest.(check bool)
              (Printf.sprintf "V(%s) at %g Hz: rel %.2e" out freq (crel h ho))
              true (crel h ho < 1e-6))
        [ "a"; "f" ])
    [ 1e-3; 1.0; 1e3; 1e6; 1e8; 1e9; 1e11 ]

(* A resistor of -1e15 ohm cancels the AC gmin of a node with no other
   conductance, so G is exactly singular (the DC solve still converges:
   its gmin is 1e-12 S).  Every AC call reports it as a typed error. *)
let test_ac_singular_g () =
  let c =
    Ckt.create ~title:"singular G"
    |> fun c -> Ckt.add_vsource c ~name:"in" ~p:"in" ~n:"0" (El.ac_source ~dc:1.0 1.0)
    |> fun c -> Ckt.add_capacitor c ~name:"1" ~p:"in" ~n:"f" ~c:1e-12
    |> fun c -> Ckt.add_resistor c ~name:"n" ~p:"f" ~n:"0" ~r:(-1e15)
  in
  let net = Sim.Acs.prepare (solve c) in
  (match Sim.Acs.transfer_result net ~freq:1e6 ~out:"f" with
   | Error (Sim.Sim_error.Singular_matrix { analysis; _ }) ->
     Alcotest.(check string) "analysis" "acs" analysis
   | Error e -> Alcotest.failf "wrong error: %s" (Sim.Sim_error.message e)
   | Ok _ -> Alcotest.fail "singular G gave a value");
  match Sim.Measure.unity_gain_freq net ~out:"f" with
  | exception Linalg.Singular _ -> ()
  | _ -> Alcotest.fail "Measure on a singular G did not raise Linalg.Singular"

(* The prepared bench is immutable: measured from the worker domains of a
   2-domain pool it gives the calling domain's results bit for bit. *)
let test_ac_shared_across_domains () =
  let spec = Comdiac.Spec.paper_ota in
  let d =
    Comdiac.Folded_cascode.size ~proc:P.c06 ~kind:M.Bsim_lite ~spec
      ~parasitics:Comdiac.Parasitics.single_fold
  in
  let tb =
    Comdiac.Testbench.make ~proc:P.c06 ~kind:M.Bsim_lite ~spec
      d.Comdiac.Folded_cascode.amp
  in
  let op = Comdiac.Testbench.operating_point tb in
  let net = Sim.Acs.prepare op in
  let measure () =
    let fu = Option.get (Sim.Measure.unity_gain_freq net ~out:"out") in
    let h = Sim.Acs.transfer net ~freq:1e6 ~out:"out" in
    [ fu; Sim.Measure.phase_margin_at net ~out:"out" fu; h.Complex.re; h.Complex.im;
      Sim.Measure.dc_gain net ~out:"out";
      Sim.Measure.output_resistance net ~out:"out";
      Sim.Noise.input_referred_psd op net ~out:"out" ~freq:1.0;
      Sim.Noise.input_referred_psd op net ~out:"out" ~freq:1e7 ]
  in
  let expect = measure () in
  let caller = (Domain.self () :> int) in
  Par.Pool.set_stall_hook (Some (fun _ -> Unix.sleepf 0.002));
  let got =
    Fun.protect ~finally:(fun () -> Par.Pool.set_stall_hook None) (fun () ->
      Par.Pool.map ~jobs:2 ~cost:Par.Pool.Moderate
        (fun _ -> ((Domain.self () :> int), measure ()))
        (List.init 8 Fun.id))
  in
  Alcotest.(check bool) "a worker domain measured the bench" true
    (List.exists (fun (dom, _) -> dom <> caller) got);
  List.iter
    (fun (dom, vs) ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d bit-identical to the caller" dom)
        true
        (List.for_all2 bits_eq vs expect))
    got

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

let ac_freqs = [ 1.0; 1e2; 1e4; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11 ]

let prop_ac_matches_oracle =
  QCheck.Test.make ~count:60
    ~name:"AC reduction matches the LU oracle on random netlists"
    (* normwise: the error relative to the largest node response *)
    QCheck.(pair (int_range 2 25) (int_range 0 100000))
    (fun (nodes, seed) ->
      let c, out = Gen_netlist.make ~nodes ~seed in
      match try_dc Sim.Stamps.Kernel c with
      | None -> true
      | Some op ->
        let net = Sim.Acs.prepare op and oracle = Ac_oracle.prepare op in
        List.for_all
          (fun freq ->
            let h = Sim.Acs.transfer net ~freq ~out in
            let ho = Ac_oracle.transfer oracle ~freq ~out in
            let err =
              Complex.norm (Complex.sub h ho)
              /. Float.max 1e-300 (Ac_oracle.node_scale oracle ~freq)
            in
            err < 1e-9
            || QCheck.Test.fail_reportf "%d nodes, seed %d, %g Hz: rel %.3e"
                 nodes seed freq err)
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
    case "AC reduction matches LU oracle" test_ac_matches_oracle;
    case "AC gmin-held floating node agrees or fails typed"
      test_ac_gmin_floating_node;
    case "AC on a singular G is a typed error" test_ac_singular_g;
    case "prepared AC bench shared across pool domains"
      test_ac_shared_across_domains;
    case "transient backends bit-identical" test_backend_tran_bit_identical;
  ]


(* --- transient step control --------------------------------------------- *)

let rc_circuit ?(title = "rc") ~r ~cap wave =
  Ckt.create ~title
  |> fun c -> Ckt.add_vsource c ~name:"in" ~p:"in" ~n:"0" (El.wave_source wave)
  |> fun c -> Ckt.add_resistor c ~name:"1" ~p:"in" ~n:"out" ~r
  |> fun c -> Ckt.add_capacitor c ~name:"1" ~p:"out" ~n:"0" ~c:cap

let test_tran_bad_inputs () =
  let c = rc_circuit ~r:1e3 ~cap:1e-9 (fun t -> if t <= 0.0 then 0.0 else 1.0) in
  let rejects what ?dt tstop =
    match Sim.Tran.run ~proc:P.c06 ~kind:M.Level1 ~tstop ?dt c with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument msg ->
      let arg = if Float.is_finite tstop && tstop > 0.0 then "dt" else "tstop" in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names %s" what msg arg)
        true
        (String.starts_with ~prefix:("Tran.run: " ^ arg ^ " = ") msg)
  in
  rejects "dt = 0" ~dt:0.0 1e-6;
  rejects "dt = nan" ~dt:Float.nan 1e-6;
  rejects "negative dt" ~dt:(-1e-9) 1e-6;
  rejects "infinite dt" ~dt:Float.infinity 1e-6;
  rejects "dt = 1e-22 on 1 us" ~dt:1e-22 1e-6;
  rejects "tstop = 0" 0.0;
  rejects "negative tstop" ~dt:1e-9 (-1e-6);
  rejects "tstop = nan" ~dt:1e-9 Float.nan;
  (* a maximum step beyond the window is only clipped to it *)
  let r = Sim.Tran.run ~proc:P.c06 ~kind:M.Level1 ~tstop:1e-6 ~dt:1.0 c in
  Alcotest.(check (float 0.0)) "ends at tstop" 1e-6
    (let ts = Sim.Tran.times r in ts.(Array.length ts - 1))

(* A source that turns nan part-way: every step into it fails, the steps
   halve towards the boundary and the run ends in a typed failure naming
   the time, after a bounded amount of work. *)
let test_tran_step_floor () =
  let wave t = if t <= 0.0 then 0.0 else if t < 0.5e-6 then 1.0 else Float.nan in
  let c = rc_circuit ~r:1e3 ~cap:1e-9 wave in
  Obs.Config.with_enabled true (fun () ->
    Obs.Metrics.reset ();
    Fun.protect ~finally:Obs.Metrics.reset (fun () ->
      (match Sim.Tran.run ~proc:P.c06 ~kind:M.Level1 ~tstop:1e-6 ~dt:1e-8 c with
       | _ -> Alcotest.fail "a nan source converged"
       | exception Phys.Numerics.No_convergence msg ->
         let has sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
           in
           go 0
         in
         Alcotest.(check bool) (msg ^ " names the time") true (has "at t=5e-07"));
      check_in_range "steps" 1.0 1000.0 (Obs.Metrics.counter "sim.tran.steps");
      check_in_range "Newton iterations" 1.0 5000.0
        (Obs.Metrics.counter "sim.tran.newton_iters")))

(* An RC (tau = 1 s) driven by a square wave whose phases are four maximum
   steps long: at the end of every phase the error-controlled run matches
   the fixed-step backward-Euler oracle at 1/4096 s within 3 mV of a 1-V
   swing (it reads 1.1-2.1 mV off; the oracle is 0.05 mV off the analytic
   1 - 1/e at the first phase end).  An edge stepped over or taken a step
   late would be off by tenths of a volt.  Times are binary fractions, so
   the edges fall exactly on oracle points. *)
let test_tran_square_wave () =
  let phase = 1.0 in
  let wave t =
    if t <= 0.0 then 0.0
    else if int_of_float (Float.ceil (t /. phase)) mod 2 = 1 then 1.0
    else 0.0
  in
  let c = rc_circuit ~title:"rc square" ~r:1e3 ~cap:1e-3 wave in
  let tstop = 8.0 *. phase in
  let res =
    Sim.Tran.run ~proc:P.c06 ~kind:M.Level1 ~tstop ~dt:(phase /. 4.0) c
  in
  let oracle =
    Tran_oracle.run ~proc:P.c06 ~kind:M.Level1 ~tstop ~dt:(1.0 /. 4096.0) c
  in
  let ots = Tran_oracle.times oracle and ow = Tran_oracle.waveform oracle "out" in
  for k = 1 to 8 do
    let t = float_of_int k *. phase in
    let i = int_of_float (t *. 4096.0) in
    Alcotest.(check (float 0.0)) "oracle point" t ots.(i);
    let got = Sim.Tran.value_at res "out" t in
    if Float.abs (got -. ow.(i)) > 3e-3 then
      Alcotest.failf "phase %d end: %.6f V, oracle %.6f V" k got ow.(i)
  done;
  Alcotest.(check bool) "fewer steps than the oracle" true
    (Array.length (Sim.Tran.times res) < Array.length ots / 10);
  (* a smooth source of the same swing is no edge, however short the
     steps: same bound, no restarts *)
  let sine t = 0.5 -. (0.5 *. cos (Float.pi *. t /. phase)) in
  let c = rc_circuit ~title:"rc sine" ~r:1e3 ~cap:1e-3 sine in
  let res =
    Sim.Tran.run ~proc:P.c06 ~kind:M.Level1 ~tstop ~dt:(phase /. 4.0) c
  in
  let oracle =
    Tran_oracle.run ~proc:P.c06 ~kind:M.Level1 ~tstop ~dt:(1.0 /. 4096.0) c
  in
  let ow = Tran_oracle.waveform oracle "out" in
  for k = 1 to 8 do
    let t = float_of_int k *. phase in
    let got = Sim.Tran.value_at res "out" t in
    let want = ow.(int_of_float (t *. 4096.0)) in
    if Float.abs (got -. want) > 3e-3 then
      Alcotest.failf "sine, t = %g: %.6f V, oracle %.6f V" t got want
  done;
  Alcotest.(check bool) "sine: fewer steps than the oracle" true
    (Array.length (Sim.Tran.times res) < Array.length ots / 10)

(* A resistor-loaded nmos inverter with a load capacitor, driven by a
   square wave through a gate resistor: two runs take the same steps and
   give the same waveforms, bit for bit. *)
let test_tran_deterministic () =
  let wave t =
    if t <= 0.0 then 0.0
    else if int_of_float (Float.ceil (t /. 50e-9)) mod 2 = 1 then 3.3
    else 0.0
  in
  let dev = Device.Mos.make ~name:"1" ~mtype:E.Nmos ~w:10e-6 ~l:1e-6 () in
  let c =
    Ckt.create ~title:"inverter"
    |> fun c -> Ckt.add_vsource c ~name:"dd" ~p:"vdd" ~n:"0" (El.dc_source 3.3)
    |> fun c -> Ckt.add_vsource c ~name:"in" ~p:"in" ~n:"0" (El.wave_source wave)
    |> fun c -> Ckt.add_resistor c ~name:"g" ~p:"in" ~n:"g" ~r:10e3
    |> fun c -> Ckt.add_resistor c ~name:"d" ~p:"vdd" ~n:"out" ~r:20e3
    |> fun c -> Ckt.add_mos c ~dev ~d:"out" ~g:"g" ~s:"0" ~b:"0"
    |> fun c -> Ckt.add_capacitor c ~name:"l" ~p:"out" ~n:"0" ~c:0.5e-12
  in
  let run () =
    Sim.Tran.run ~proc:P.c06 ~kind:M.Level1 ~tstop:200e-9 ~dt:10e-9 c
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same times" true
    (Array.length (Sim.Tran.times a) = Array.length (Sim.Tran.times b)
     && Array.for_all2 bits_eq (Sim.Tran.times a) (Sim.Tran.times b));
  List.iter
    (fun node ->
      Alcotest.(check bool) (node ^ " bit-identical") true
        (Array.for_all2 bits_eq (Sim.Tran.waveform a node)
           (Sim.Tran.waveform b node)))
    [ "g"; "out" ];
  (* the inverter does switch *)
  let lo = Array.fold_left Float.min Float.infinity (Sim.Tran.waveform a "out") in
  check_in_range "output pulled low" 0.0 1.0 lo

let step_control_cases =
  [
    case "transient input boundary is typed" test_tran_bad_inputs;
    case "transient step floor is a typed, bounded failure" test_tran_step_floor;
    case "square-wave RC matches the oracle at every phase end"
      test_tran_square_wave;
    case "transient step control deterministic" test_tran_deterministic;
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
          prop_ac_matches_oracle;
          prop_kernel_tran_bit_identical;
        ]
    @ step_control_cases )
